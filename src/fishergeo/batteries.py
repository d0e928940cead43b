"""Randomized verification batteries with deterministic aggregation.

Every battery is one ``_Battery`` spec in ``_BATTERIES``: its config keys
with their defaults and types, a draw, the single-case check from
:mod:`fishergeo.verify` or :mod:`fishergeo.models` that evaluates each case,
and how the residual is read and judged. ``run_battery`` reads a config against the spec before any
trial runs; ``_drive``, the one trial loop, draws every case from a single
seeded generator, evaluates them through the check, or in one call of the
spec's kernel, and tracks the worst residual in trial order. Violations
are first minimized by greedy shrinking (reduce the sample space, then the
vector support) and then recorded as witnesses, each tagged with
(seed, trial) so the exact case can be regenerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import FisherGeoError, InvalidParameter
from .families import CandidateFamily, parse_family
from .geometry import TangentVector, delta
from .jsonio import read_bool, read_float, read_float_list, read_int
from .markov import Channel, apply, canonical_embedding, random_channel, random_surjection
# The crb spec names its check and kernel; its draw calls the estimator kernel
# through this namespace too.
from .models import (
    categorical_model, crb_check, crb_kernel, estimator_noise, unbiased_estimators_kernel,
)
from .simplex import RandomVariable, SampleSpace, new_distribution, sample_interior
# The battery specs name their checks; _drive calls them through this namespace.
from .verify import (
    PASS_TOL, STRONG_INVARIANCE_TOL, VIOLATION_TOL, Witness, characterize, check_invariance,
    check_monotonicity_cometric, check_monotonicity_metric, check_prop6_identity,
    check_strong_invariance, classify, invariance_kernel, prop6_kernel, strong_invariance_kernel,
    weak_invariance_residual, weak_invariance_residual_kernel,
)

#: CRB battery verdicts tolerate eigenvalues of V - G^{-1} down to this.
CRB_EIG_TOL = -1e-8
#: A control run passes when even its smallest residual exceeds this.
CONTROL_TOL = 1e-3


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
# Battery specs and the trial driver
# ---------------------------------------------------------------------------


def _at_least(minimum: int) -> Callable[[Any, str], int]:
    return lambda value, key: read_int(value, key, minimum)


def _read_family(value, key: str) -> CandidateFamily:
    if isinstance(value, str):
        return parse_family(value)
    if not isinstance(value, CandidateFamily):
        raise InvalidParameter(
            f"{key} must be a grammar expression or a CandidateFamily, not {value!r}"
        )
    return value


#: The reader of each config key but ``n_max``, an integer of at least the
#: battery's ``min_n``. A reader returns the value in its type or raises
#: InvalidParameter naming the key.
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "trials": _at_least(1), "seed": _at_least(0), "grid_count": _at_least(1),
    "denominator_bound": _at_least(2), "step": read_float, "alphas": read_float_list,
    "mismatched": read_bool, "family": _read_family,
}


@dataclass(frozen=True)
class _Battery:
    """One battery: its config keys with their defaults, its trials, its verdict.

    A default of None marks a required key. ``draw(rng, rounds=..., **params)``
    returns the cases of all rounds in trial order, each the inputs of the
    check named ``check``, keyed by parameter name; ``_per_trial`` makes it
    from a draw of one case. A battery with a ``kernel`` evaluates all its
    cases in one call of it: the check over a leading trial axis, which
    takes each input as a sequence with one entry per trial and returns the
    reports in trial order. Checks and kernels, and the kernels a draw
    calls, are looked up in this module at run time, so a rebound name is
    the one called. ``residual`` reads the
    signed residual from the check's report. Above ``violation_tol`` the
    case is shrunk and recorded as a witness of the kind ``name``, unless
    the report carries its own. ``extras(params, worst, cases, reports)``
    adds keys to the report from every case and report, in trial order.

    When the bool key named ``control`` is true, the run is a control of the
    opposite polarity, which shows that the check detects a mismatch: it
    tracks the smallest residual, records no witness, passes when that
    residual exceeds ``CONTROL_TOL`` and reports as ``<name>_control``.
    """

    name: str
    defaults: dict[str, Any]
    draw: Callable[..., list[dict]]
    check: str
    residual: Callable[[Any], float]
    rounds: Callable[[dict], int] = itemgetter("trials")
    min_n: int = 2
    pass_tol: float = PASS_TOL
    violation_tol: float = VIOLATION_TOL
    shrinkers: tuple = ()
    extras: Callable[[dict, float, list, list], dict] = lambda *_: {}
    control: str | None = None
    kernel: str | None = None


def _drive(spec: _Battery, params: dict) -> BatteryReport:
    """Draw ``spec.rounds(params)`` seeded cases, run them through the check
    or the kernel and aggregate them in trial order."""
    check = globals()[spec.check]
    control = spec.control is not None and params[spec.control]
    seed, rounds = params["seed"], spec.rounds(params)
    rng = np.random.default_rng(seed)
    pick, worst = (min, np.inf) if control else (max, -np.inf)
    witnesses = []
    cases = spec.draw(rng, rounds=rounds, **params)
    if spec.kernel is None:
        reports = [check(**case) for case in cases]
    else:
        reports = globals()[spec.kernel](**{key: [case[key] for case in cases] for key in cases[0]})
    for trial, (case, report) in enumerate(zip(cases, reports)):
        value = float(spec.residual(report))
        worst = pick(worst, value)
        if not control and value > spec.violation_tol:
            witness = getattr(report, "witness", None)
            if witness is None:
                case = shrink_case(
                    case, lambda c: spec.residual(check(**c)) > spec.violation_tol, spec.shrinkers
                )
                witness = Witness.from_case(spec.name, case, f"seed={seed} trial={trial}")
            witnesses.append(witness)
    if control:
        status = "pass" if worst > CONTROL_TOL else "violation"
    else:
        status = "violation" if witnesses else classify(max(worst, 0.0), spec.pass_tol)
    return BatteryReport(
        f"{spec.name}_control" if control else spec.name,
        # a battery without a trials key (weak_invariance) reports its rounds
        params.get("trials", rounds), params["n_max"], seed, worst, status,
        tuple(witnesses), spec.extras(params, worst, cases, reports),
    )


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def _per_trial(draw: Callable[..., dict]) -> Callable[..., list[dict]]:
    """The draw of every round from ``draw(rng, trial=..., **params)``, one case per trial."""
    return lambda rng, rounds, **params: [draw(rng, trial=t, **params) for t in range(rounds)]


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


def _draw_invariance(rng: np.random.Generator, n_max: int, **_) -> dict:
    pair, q = _random_pair(rng, n_max)
    small = pair.surjection.codomain
    return {
        "pair": pair, "q": q,
        "a": _random_variable(rng, small), "b": _random_variable(rng, small),
        "x_m_rep": _random_sum_zero(rng, small.size),
        "y_m_rep": _random_sum_zero(rng, small.size),
    }


def _draw_strong_invariance(rng: np.random.Generator, n_max: int, **_) -> dict:
    pair, q = _random_pair(rng, n_max)
    a = _random_variable(rng, pair.surjection.codomain)
    return {"pair": pair, "q": q, "a": a, "b": _random_variable(rng, q.space)}


def _draw_prop6(rng: np.random.Generator, n_max: int, family: CandidateFamily, **_) -> dict:
    pair, _ = _random_pair(rng, n_max)
    p = sample_interior(pair.surjection.codomain, seed=int(rng.integers(2**32)))
    alpha = delta(p, _random_variable(rng, p.space))
    q_img = apply(pair.embedding_channel, p)
    beta = delta(q_img, _random_variable(rng, q_img.space))
    return {"pair": pair, "p": p, "alpha": alpha, "beta": beta, "family": family}


def _draw_crb(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    """Locally unbiased estimators on random categorical model points.

    Each trial draws its size, its point and its estimator noise, in the
    order of one ``unbiased_estimators`` call; the estimators of all trials
    then come from one ``unbiased_estimators_kernel`` call.
    """
    models, xis, noise = [], [], []
    for _ in range(rounds):
        n = int(rng.integers(2, n_max + 1))
        model = categorical_model(n)
        models.append(model)
        xis.append(sample_interior(model.space, seed=int(rng.integers(2**32))).weights[: n - 1])
        noise.append(estimator_noise(model, rng))
    estimators = unbiased_estimators_kernel(models, xis, noise)
    return [{"model": m, "xi": x, "estimators": e} for m, x, e in zip(models, xis, estimators)]


def _size_pairs(n_max: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(2, n_max) for n in range(m + 1, n_max + 1)]


def _draw_weak_invariance(rng: np.random.Generator, n_max: int, alphas: tuple[float, ...],
                          grid_count: int, step: float, mismatched: bool, trial: int, **_) -> dict:
    """Trial t runs the t-th (alpha, size pair) of their product, alpha-major."""
    sizes = _size_pairs(n_max)
    alpha = alphas[trial // len(sizes)]
    m, n = sizes[trial % len(sizes)]
    surjection = random_surjection(n, m, seed=int(rng.integers(2**32)))
    q = sample_interior(SampleSpace(n), seed=int(rng.integers(2**32)))
    # keep grid points well inside the simplex: the finite-difference
    # step (default 1e-4) must not push any weight negative
    grid = [
        sample_interior(SampleSpace(m), seed=int(rng.integers(2**32)), floor=0.02)
        .weights[: m - 1]
        for _ in range(grid_count)
    ]
    return {
        "surjection": surjection, "q": q, "alpha": alpha,
        "grid": grid, "step": step, "mismatched": mismatched,
    }


def _weak_invariance_extras(params: dict, worst: float, cases: list, reports: list) -> dict:
    shared = {"step": params["step"], "alphas": list(params["alphas"])}
    if params["mismatched"]:
        return {**shared, "mismatch_detected": worst > CONTROL_TOL}
    grids = [[[float(v) for v in g] for g in case["grid"]] for case in cases]
    return {"residual_max": worst, **shared, "grids": grids}


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------


_BATTERIES: dict[str, _Battery] = {spec.name: spec for spec in (
    _Battery(
        "monotonicity_metric", {"trials": 1000, "n_max": 6, "seed": 0},
        _per_trial(lambda rng, n_max, **_: _draw_channel_case(rng, n_max, "x")),
        "check_monotonicity_metric", attrgetter("slack"),
        shrinkers=(_merge_inputs, _merge_outputs, _zero_entry("x")),
    ),
    _Battery(
        "monotonicity_cometric", {"trials": 1000, "n_max": 6, "seed": 0},
        _per_trial(lambda rng, n_max, **_: _draw_channel_case(rng, n_max, "a")),
        "check_monotonicity_cometric", attrgetter("slack"),
        shrinkers=(_merge_inputs, _merge_outputs, _zero_entry("a")),
    ),
    _Battery(
        "invariance", {"trials": 500, "n_max": 8, "seed": 0}, _per_trial(_draw_invariance),
        "check_invariance", attrgetter("max_residual"), min_n=3, kernel="invariance_kernel",
    ),
    _Battery(
        "strong_invariance", {"trials": 500, "n_max": 8, "seed": 0},
        _per_trial(_draw_strong_invariance),
        "check_strong_invariance", attrgetter("max_residual"),
        min_n=3, pass_tol=STRONG_INVARIANCE_TOL, kernel="strong_invariance_kernel",
    ),
    _Battery(
        "prop6", {"trials": 200, "n_max": 6, "seed": 0, "family": "COV"},
        _per_trial(_draw_prop6), "check_prop6_identity", attrgetter("residual"), min_n=3,
        kernel="prop6_kernel", extras=lambda params, *_: {"family": params["family"].name},
    ),
    _Battery(
        # Full categorical models: the kernel of restriction holds only the
        # constants, so every trial samples the equality case V = G^{-1}.
        "crb", {"trials": 1000, "n_max": 4, "seed": 0}, _draw_crb, "crb_check",
        # the minimum eigenvalue of V - G^{-1}, negated and scaled by G^{-1}
        lambda r: -(r.min_eigenvalue / (1.0 + np.max(np.abs(r.inverse_information)))),
        pass_tol=-CRB_EIG_TOL, violation_tol=-CRB_EIG_TOL, kernel="crb_kernel",
        extras=lambda params, worst, *_: {"min_scaled_eigenvalue": float(-worst)},
    ),
    _Battery(
        # One trial per alpha and size pair. The mismatched control puts the
        # dual connection on the big simplex, so its residuals must be large.
        "weak_invariance",
        {
            "n_max": 5, "seed": 0, "step": 1e-4, "alphas": (-1.0, 0.0, 1.0),
            "grid_count": 3, "mismatched": False,
        },
        _per_trial(_draw_weak_invariance), "weak_invariance_residual", float,
        rounds=lambda params: len(_size_pairs(params["n_max"])) * len(params["alphas"]),
        # finite differences dominate here: pass at the violation tolerance
        min_n=3, pass_tol=VIOLATION_TOL, kernel="weak_invariance_residual_kernel",
        extras=_weak_invariance_extras, control="mismatched",
    ),
    _Battery(
        # one round: the probe draws its own cases and builds its own witness
        "characterize",
        {"family": None, "n_max": 6, "denominator_bound": 64, "trials": 8, "seed": 0},
        _per_trial(lambda rng, trial, **params: params), "characterize",
        lambda result: 0.0 if result.passed else result.witness.gap,
        rounds=lambda params: 1,
        extras=lambda params, worst, cases, reports: {"characterize": reports[0].to_json()},
    ),
)}


def run_battery(config: dict) -> BatteryReport:
    """Run the battery that a config object names, on its checked parameters.

    Every key besides ``battery`` must be one of the battery's keys (see
    ``_BATTERIES``), and its value is read in the key's type before any
    trial runs: an unknown key, a missing required key or a wrong value
    raises InvalidParameter naming the key. Errors inside the run propagate.
    """
    if not isinstance(config, dict):
        raise InvalidParameter(f"a battery config is a JSON object, not {type(config).__name__}")
    if "battery" not in config:
        raise InvalidParameter("config needs a 'battery' key")
    name = config["battery"]
    if not isinstance(name, str):
        raise InvalidParameter(f"battery must be a name (a string), not {name!r}")
    spec = _BATTERIES.get(name)
    if spec is None:
        raise InvalidParameter(f"unknown battery {name!r}; known: {sorted(_BATTERIES)}")
    for key in config:
        if key != "battery" and key not in spec.defaults:
            raise InvalidParameter(
                f"battery {name!r} has no key {key!r}; its keys: {sorted(spec.defaults)}"
            )
    params = {}
    for key, default in spec.defaults.items():
        if key not in config and default is None:
            raise InvalidParameter(f"battery {name!r} needs the key {key!r}")
        read = _at_least(spec.min_n) if key == "n_max" else _READERS[key]
        params[key] = read(config.get(key, default), key)
    return _drive(spec, params)


# One view per battery: the same run and validation as a config object.


def battery_monotonicity_metric(**params) -> BatteryReport:
    """Metric norms never grow under random channels."""
    return run_battery({"battery": "monotonicity_metric", **params})


def battery_monotonicity_cometric(**params) -> BatteryReport:
    """Variance of conditional expectations never exceeds the variance."""
    return run_battery({"battery": "monotonicity_cometric", **params})


def battery_invariance(**params) -> BatteryReport:
    """Metric/co-metric/covariance invariance through canonical pairs."""
    return run_battery({"battery": "invariance", **params})


def battery_strong_invariance(**params) -> BatteryReport:
    """Adjoint/projector identities and the mixed covariance identity."""
    return run_battery({"battery": "strong_invariance", **params})


def battery_prop6(**params) -> BatteryReport:
    """Two-sided pairing identity with a candidate family in place of g."""
    return run_battery({"battery": "prop6", **params})


def battery_crb(**params) -> BatteryReport:
    """Randomized locally unbiased estimators never beat the Cramér-Rao bound."""
    return run_battery({"battery": "crb", **params})


def battery_weak_invariance(**params) -> BatteryReport:
    """Connection invariance through canonical pairs, or its mismatched control."""
    return run_battery({"battery": "weak_invariance", **params})
