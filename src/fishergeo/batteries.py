"""Randomized verification batteries with deterministic aggregation.

Every battery is one ``_Battery`` spec in ``_BATTERIES``: its config keys
with their defaults and types, a draw, the one function from
:mod:`fishergeo.verify` or :mod:`fishergeo.models` that evaluates the cases
(a single-case check or a kernel over all of them), and how the residual is
read and judged. ``run_battery`` reads a config against the spec before any
trial runs; ``_drive``, the one trial loop, draws every case from a single
seeded generator, evaluates them through the check, or in one call of the
spec's kernel, and tracks the worst residual in trial order. Violations
become witnesses of the drawn case, built from the report that judged them
and tagged (seed, trial); ``prop6_kernel`` and the probe give theirs untagged.
Every battery but ``characterize`` draws all its trials at once, so a draw
is not prefix-stable: a trial is regenerated from the run's
``(seed, trials, n_max)`` and its index, not from its seed and index alone.
A channel, pair or weak-invariance case is arrays, checked by its kernel,
not objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import Any, Callable

import numpy as np

from .errors import InvalidParameter, by_shape
from .families import CandidateFamily, parse_family
from .jsonio import MAX_INT, read_bool, read_float, read_float_list, read_int, read_object
from .markov import apply_rows, canonical_embedding_rows, random_channel_kernels
# The crb spec names its kernel; its draw calls the estimator kernel through
# this namespace too.
from .models import categorical_model, crb_kernel, unbiased_estimators_kernel
from .simplex import centered_rows, interior_rows
# The battery specs name their checks; _drive calls them through this namespace.
from .verify import (
    PASS_TOL, STRONG_INVARIANCE_TOL, VIOLATION_TOL, Witness, characterize, classify, invariance_kernel,
    monotonicity_cometric_kernel, monotonicity_metric_kernel, prop6_kernel, strong_invariance_kernel,
    weak_invariance_residual_kernel,
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


#: The reader of each config key but ``n_max``, an integer in the battery's
#: ``[min_n, max_n]``. A reader returns the value in its type or raises
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
    returns the cases of all rounds in trial order, each keyed by parameter
    name, drawn from the run's one generator. A spec names one
    evaluator, never two: either the single-case ``check``, called once per
    case, or the ``kernel``, which takes each input as a sequence with one
    entry per trial, evaluates all cases in one call and returns the reports
    in trial order. Checks and kernels, and the kernels a draw calls, are
    looked up in this module at run time, so a rebound name is the one
    called. ``n_max`` is read in ``[min_n, max_n]``, the sizes the draw can
    build. ``residual`` reads the signed residual from a report. Above
    ``VIOLATION_TOL``, whatever the spec's ``pass_tol``, the drawn case is
    recorded as a witness of the kind ``name``, unless the report carries
    its own. ``extras(params, worst, cases, reports)`` adds keys to the
    report from every case and report, in trial order.

    When the bool key named ``control`` is true, the run is a control of the
    opposite polarity, which shows that the check detects a mismatch: it
    tracks the smallest residual, records no witness, passes when that
    residual exceeds ``CONTROL_TOL`` and reports as ``<name>_control``.
    """

    name: str
    defaults: dict[str, Any]
    draw: Callable[..., list[dict]]
    residual: Callable[[Any], float]
    check: str | None = None
    kernel: str | None = None
    rounds: Callable[[dict], int] = itemgetter("trials")
    min_n: int = 2
    max_n: int = MAX_INT
    pass_tol: float = PASS_TOL
    extras: Callable[[dict, float, list, list], dict] = lambda *_: {}
    control: str | None = None


def _drive(spec: _Battery, params: dict) -> BatteryReport:
    """Draw ``spec.rounds(params)`` seeded cases, run them through the check
    or the kernel and aggregate them in trial order."""
    control = spec.control is not None and params[spec.control]
    seed, rounds = params["seed"], spec.rounds(params)
    rng = np.random.default_rng(seed)
    pick, worst = (min, np.inf) if control else (max, -np.inf)
    witnesses = []
    cases = spec.draw(rng, rounds=rounds, **params)
    evaluate = globals()[spec.kernel or spec.check]
    if spec.kernel is None:
        reports = [evaluate(**case) for case in cases]
    else:
        reports = evaluate(**{key: [case[key] for case in cases] for key in cases[0]})
    for trial, (case, report) in enumerate(zip(cases, reports)):
        value = float(spec.residual(report))
        worst = pick(worst, value)
        if not control and value > VIOLATION_TOL:
            detail = f"seed={seed} trial={trial}"
            witnesses.append(getattr(report, "witness", None) or Witness.from_case(spec.name, case, report, detail))
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


# Every battery but ``characterize`` draws all its trials at once from the
# battery's generator: every trial's sizes; then, for each shape in
# ``by_shape`` order, one flat Dirichlet block per kind of point (and one for
# the channel columns); then the free values of all surjections in one
# ``integers`` block and their orders in one row-wise ``permuted``; then one
# ``normal`` block for every variable, tangent vector and estimator noise row,
# and for ``crb`` one ``uniform(0, 2)`` block of the noise scales. Every trial
# stays rows; a pair trial's canonical fibers and centered representatives
# are computed per shape. Each has the law of one drawn alone through
# ``random_channel``, ``sample_interior`` (floor 1e-6, 0.02 for a
# weak-invariance grid), ``random_surjection`` or ``estimator_noise``, but
# the stream is not
# prefix-stable: a trial is regenerated from the run's (seed, trials, n_max)
# and its index.


def _by_shape_rows(rng: np.random.Generator, shapes: list[tuple[int, ...]], *blocks) -> list[list]:
    """Per block, the row of each trial: for each shape, in ``by_shape``
    order, each ``block(rng, shape, count)`` draws the rows of its trials."""
    rows = [[None] * len(shapes) for _ in blocks]
    for trials in by_shape(shapes):
        for per_trial, block in zip(rows, blocks):
            for t, row in zip(trials, block(rng, shapes[trials[0]], len(trials))):
                per_trial[t] = row
    return rows


def _points_on(axis: int, floor: float = 1e-6, each: tuple[int, ...] = ()) -> Callable[..., np.ndarray]:
    """The block of interior points, ``each`` per trial, on the space of size ``shape[axis]``."""
    return lambda rng, shape, count: interior_rows(rng.dirichlet(np.ones(shape[axis]), (count, *each)), floor)


def _channel_kernels(rng: np.random.Generator, shape: tuple[int, int], count: int) -> np.ndarray:
    """The block of column-major kernels of channels of shape (n_in, n_out)."""
    n_in, n_out = shape
    return random_channel_kernels(rng.dirichlet(np.ones(n_out), size=(count, n_in)))


def _split(values, sizes: list[int]) -> list:
    """Consecutive slices of ``values`` of the given sizes."""
    return [values[end - size : end] for size, end in zip(sizes, accumulate(sizes))]


def _normal_rows(rng: np.random.Generator, sizes: list[int]) -> list[np.ndarray]:
    """Standard normal rows of the given sizes, from one ``normal`` block."""
    return _split(rng.normal(size=sum(sizes)), sizes)


def _surjection_maps(rng: np.random.Generator, n: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
    """0-based maps of surjections from n[t] onto m[t] points, in the law of
    ``random_surjection``: every point of the codomain once and n - m values
    uniform on it, in a uniformly random order. The rows are padded with -1
    to the longest map before the row-wise shuffle, which leaves the order of
    each row's own values uniform."""
    columns = np.arange(n.max())
    rows = np.where(columns < m[:, None], columns, -1)
    rows[(columns >= m[:, None]) & (columns < n[:, None])] = rng.integers(0, np.repeat(m, n - m))
    shuffled = rng.permuted(rows, axis=1)
    return _split(shuffled[shuffled >= 0], n.tolist())


def _draw_channel_cases(rng: np.random.Generator, rounds: int, n_max: int, key: str,
                        **_) -> list[dict]:
    """The column-major kernels of random channels, input points, and the
    m-representation ``x`` of a tangent vector at each or a variable ``a``
    on each output space, as arrays."""
    shapes = [tuple(shape) for shape in rng.integers(2, n_max + 1, size=(rounds, 2)).tolist()]
    points, kernels = _by_shape_rows(rng, shapes, _points_on(0), _channel_kernels)
    values = _normal_rows(rng, [n_in if key == "x" else n_out for n_in, n_out in shapes])
    return [
        {"kernel": kernel, "p": w, key: v - v.mean() if key == "x" else v}
        for kernel, w, v in zip(kernels, points, values)
    ]


def _pair_trials(rng: np.random.Generator, rounds: int, n_max: int, *blocks):
    """The sizes (n, m), 2 <= m < n <= n_max, of canonical-pair trials, the
    rows of their big points q and of ``blocks``, their maps and fibers through q."""
    n = rng.integers(3, n_max + 1, size=rounds)
    m = rng.integers(2, n)
    shapes = list(zip(n.tolist(), m.tolist()))
    rows = _by_shape_rows(rng, shapes, _points_on(0), *blocks)
    maps = _surjection_maps(rng, n, m)
    fibers = [None] * rounds
    for trials in by_shape(shapes):
        big = np.array([rows[0][t] for t in trials])
        stack = canonical_embedding_rows(np.array([maps[t] for t in trials]), big, shapes[trials[0]][1])
        for t, r in zip(trials, stack):
            fibers[t] = r
    return shapes, rows, maps, fibers


def _draw_invariance(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    shapes, (big,), maps, fibers = _pair_trials(rng, rounds, n_max)
    values = _normal_rows(rng, [m for _, m in shapes for _ in range(4)])
    cases = []
    for t in range(rounds):
        a, b, x, y = values[4 * t : 4 * t + 4]
        cases.append({
            "surjection": maps[t], "fibers": fibers[t], "q": big[t],
            "x": x - x.mean(), "y": y - y.mean(), "a": a, "b": b,
        })
    return cases


def _draw_strong_invariance(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    shapes, (big,), maps, fibers = _pair_trials(rng, rounds, n_max)
    values = _normal_rows(rng, [size for n, m in shapes for size in (m, n)])
    return [
        {"surjection": maps[t], "fibers": fibers[t], "q": big[t], "a": values[2 * t], "b": values[2 * t + 1]}
        for t in range(rounds)
    ]


def _draw_prop6(rng: np.random.Generator, rounds: int, n_max: int, family: CandidateFamily,
                **_) -> list[dict]:
    shapes, (_, small), maps, fibers = _pair_trials(rng, rounds, n_max, _points_on(1))
    values = _normal_rows(rng, [size for n, m in shapes for size in (m, n)])
    cases = [
        {"surjection": maps[t], "fibers": fibers[t], "p": small[t], "family": family} for t in range(rounds)
    ]
    for trials in by_shape(shapes):
        w = np.array([small[t] for t in trials])
        phi = np.ascontiguousarray(np.array([fibers[t] for t in trials]).transpose(0, 2, 1))
        a = centered_rows(w, np.array([values[2 * t] for t in trials]))
        b = centered_rows(apply_rows(phi, w), np.array([values[2 * t + 1] for t in trials]))
        for t, a_t, b_t in zip(trials, a, b):
            cases[t].update(a=a_t, b=b_t)
    return cases


def _draw_crb(rng: np.random.Generator, rounds: int, n_max: int, **_) -> list[dict]:
    """Locally unbiased estimators on random categorical model points: the
    sizes n, the points, the noise rows (n - 1, n) and the scales (n - 1,) of
    every trial; the estimators then come from one ``unbiased_estimators_kernel`` call."""
    n = rng.integers(2, n_max + 1, size=rounds).tolist()
    (points,) = _by_shape_rows(rng, [(size,) for size in n], _points_on(0))
    noise = [z.reshape(size - 1, size) for z, size in zip(_normal_rows(rng, [s * (s - 1) for s in n]), n)]
    scales = _split(rng.uniform(0, 2, size=sum(n) - rounds), [size - 1 for size in n])
    models = [categorical_model(size) for size in n]
    xis = [w[:-1] for w in points]
    estimators = unbiased_estimators_kernel(models, xis, list(zip(noise, scales)))
    return [{"model": m, "xi": x, "estimators": e} for m, x, e in zip(models, xis, estimators)]


def _size_pairs(n_max: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(2, n_max) for n in range(m + 1, n_max + 1)]


def _draw_weak_invariance(rng: np.random.Generator, n_max: int, alphas: tuple[float, ...],
                          grid_count: int, step: float, mismatched: bool, **_) -> list[dict]:
    """Trial t runs the t-th (alpha, size pair) of their product, alpha-major,
    on the 0-based map of F, q and the grid (grid_count, m - 1), as arrays."""
    sizes = _size_pairs(n_max)
    shapes = [(n, m) for _ in alphas for m, n in sizes]
    # keep grid points well inside the simplex, at a floor of 0.02: the
    # finite-difference step (default 1e-4) must not push any weight negative
    big, grids = _by_shape_rows(rng, shapes, _points_on(0), _points_on(1, 0.02, (grid_count,)))
    maps = _surjection_maps(rng, *(np.array(side) for side in zip(*shapes)))
    return [
        {"surjection": f, "q": q, "alpha": alphas[t // len(sizes)], "grid": grid[:, :-1], "step": step,
         "mismatched": mismatched}
        for t, (f, q, grid) in enumerate(zip(maps, big, grids))
    ]


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
    # n_max stays below 1000: a channel column keeps a floor of 1e-3 on each of its n_max outputs
    _Battery(
        "monotonicity_metric", {"trials": 1000, "n_max": 6, "seed": 0},
        partial(_draw_channel_cases, key="x"), attrgetter("slack"),
        kernel="monotonicity_metric_kernel", max_n=999,
    ),
    _Battery(
        "monotonicity_cometric", {"trials": 1000, "n_max": 6, "seed": 0},
        partial(_draw_channel_cases, key="a"), attrgetter("slack"),
        kernel="monotonicity_cometric_kernel", max_n=999,
    ),
    _Battery(
        "invariance", {"trials": 500, "n_max": 8, "seed": 0}, _draw_invariance,
        attrgetter("max_residual"), kernel="invariance_kernel", min_n=3,
    ),
    _Battery(
        "strong_invariance", {"trials": 500, "n_max": 8, "seed": 0},
        _draw_strong_invariance, attrgetter("max_residual"),
        kernel="strong_invariance_kernel", min_n=3, pass_tol=STRONG_INVARIANCE_TOL,
    ),
    _Battery(
        "prop6", {"trials": 200, "n_max": 6, "seed": 0, "family": "COV"},
        _draw_prop6, attrgetter("residual"), kernel="prop6_kernel", min_n=3,
        extras=lambda params, *_: {"family": params["family"].name},
    ),
    _Battery(
        # Full categorical models: the kernel of restriction holds only the
        # constants, so every trial samples the equality case V = G^{-1}.
        "crb", {"trials": 1000, "n_max": 4, "seed": 0}, _draw_crb,
        attrgetter("scaled_residual"), kernel="crb_kernel", pass_tol=-CRB_EIG_TOL,
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
        _draw_weak_invariance, float, kernel="weak_invariance_residual_kernel",
        rounds=lambda params: len(_size_pairs(params["n_max"])) * len(params["alphas"]),
        # finite differences dominate here: pass at the violation tolerance;
        # n_max stays at most 50: a grid point keeps a floor of 0.02 on n_max - 1 coordinates
        min_n=3, max_n=50, pass_tol=VIOLATION_TOL,
        extras=_weak_invariance_extras, control="mismatched",
    ),
    _Battery(
        # one round: the probe draws its own cases and builds its own witness
        "characterize",
        {"family": None, "n_max": 6, "denominator_bound": 64, "trials": 8, "seed": 0},
        lambda rng, rounds, **params: [params],
        lambda result: 0.0 if result.passed else result.witness.gap, check="characterize",
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
    read_object(config, ("battery", *spec.defaults), f"battery {name!r}")
    params = {}
    for key, default in spec.defaults.items():
        if key not in config and default is None:
            raise InvalidParameter(f"battery {name!r} needs the key {key!r}")
        read = partial(read_int, minimum=spec.min_n, maximum=spec.max_n) if key == "n_max" else _READERS[key]
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
