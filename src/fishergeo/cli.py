"""Command-line front end.

Subcommands dispatch into the library and print one JSON report to stdout
(or ``--out``). Output is byte-identical across runs for identical inputs
and seed: floats print in shortest round-trip form, object keys are emitted
in a fixed order, and all randomness flows through the explicit seed.
A command imports the modules beyond the wire formats when it runs, so a
process loads only what its command needs.

Exit codes: 0 = pass, 1 = mathematical violation or witness found,
2 = input/usage error (with a machine-readable error object). Only the
package's own errors, file errors and malformed JSON count as input errors:
any other exception is a bug and surfaces as a traceback. When ``--out``
cannot be written, the error object goes to stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import PASS_TOL, VIOLATION_TOL, FisherGeoError, InvalidParameter
from .jsonio import (
    channel_from_json,
    cotangent_from_json,
    cotangent_to_json,
    distribution_from_json,
    estimators_from_json,
    model_from_json,
    tangent_from_json,
    tangent_to_json,
)
from .markov import pullback, pushforward
from .models import crb_check, fisher_info

DEFAULT_TOL = 1e-6
#: A value that argparse would take for an option: a minus sign, then a digit,
#: a dot, or "inf" or "nan" in any case, as ``float`` reads them. No option of
#: this CLI starts that way.
_DASHED_VALUE = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # bytes that are not UTF-8, an integer too long to convert
        raise InvalidParameter(f"cannot read {path} as JSON: {exc}") from exc


def _matrix(values: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(values)]


def _parse_xi(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip()])
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse parameter vector {text!r}: {exc}") from exc


def _parse_box(text: str) -> list[tuple[float, float]]:
    """Axes ``lo:hi`` with finite bounds and lo <= hi, or InvalidParameter naming the axis."""
    box = []
    for axis in text.split(","):
        lo, _, hi = axis.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            lo = hi = math.nan
        # Written so that NaN, given or from a failed parse, fails it.
        if not -math.inf < lo <= hi < math.inf:
            raise InvalidParameter(f"box axis {axis!r} is not lo:hi with finite lo <= hi")
        box.append((lo, hi))
    return box


def _tolerances(args) -> dict:
    return {"tol": args.tol, "pass": PASS_TOL, "violation": VIOLATION_TOL}


def cmd_fisher(args) -> tuple[int, dict]:
    model = model_from_json(_load_json(args.model))
    xi = _parse_xi(args.xi)
    info = fisher_info(model, xi)
    return 0, {
        "G": _matrix(info.matrix),
        "G_inv": _matrix(info.inverse()),
        "tolerances": _tolerances(args),
    }


def cmd_crb(args) -> tuple[int, dict]:
    model = model_from_json(_load_json(args.model))
    xi = _parse_xi(args.xi)
    estimators = estimators_from_json(_load_json(args.estimators))
    box = _parse_box(args.box) if args.box else None
    report = crb_check(model, xi, estimators, mode=args.mode, box=box)
    payload = {
        "V": _matrix(report.covariance),
        "G_inv": _matrix(report.inverse_information),
        "min_eigenvalue": report.min_eigenvalue,
        "verdict": report.verdict,
        "equality": report.equality,
        "mode": report.mode,
        "tolerances": {"psd": report.psd_tolerance, "tol": args.tol},
    }
    return (0 if report.passed else 1), payload


def cmd_push(args) -> tuple[int, dict]:
    channel = channel_from_json(_load_json(args.channel))
    p = distribution_from_json(_load_json(args.p))
    x = tangent_from_json(_load_json(args.vector))
    return 0, tangent_to_json(pushforward(channel, p, x))


def cmd_pull(args) -> tuple[int, dict]:
    channel = channel_from_json(_load_json(args.channel))
    p = distribution_from_json(_load_json(args.p))
    alpha = cotangent_from_json(_load_json(args.vector))
    return 0, cotangent_to_json(pullback(channel, p, alpha))


def cmd_transport(args) -> tuple[int, dict]:
    from .connections import e_transport, m_transport

    x = tangent_from_json(_load_json(args.vector))
    target = distribution_from_json(_load_json(args.to))
    mover = e_transport if args.mode == "e" else m_transport
    return 0, tangent_to_json(mover(x, target))


def cmd_duality(args) -> tuple[int, dict]:
    from .connections import coordinate_field, duality_check

    model = model_from_json(_load_json(args.model))
    xi = _parse_xi(args.xi)
    fields = [
        coordinate_field(model, index) for index in (args.i, args.j, args.k)
    ]
    residual = duality_check(model, xi, *fields, step=args.step)
    passed = residual <= args.tol
    payload = {
        "residual": residual,
        "step": args.step,
        "xi": [float(v) for v in xi],
        "fields": [args.i, args.j, args.k],
        "pass": passed,
        "tolerances": _tolerances(args),
    }
    return (0 if passed else 1), payload


def cmd_verify(args) -> tuple[int, dict]:
    from .batteries import run_battery

    config = _load_json(args.config)
    if isinstance(config, dict):
        config.setdefault("seed", args.seed)
    report = run_battery(config)
    return (0 if report.passed else 1), report.to_json()


def cmd_characterize(args) -> tuple[int, dict]:
    from .batteries import run_battery

    report = run_battery({
        "battery": "characterize", "family": args.family, "n_max": args.n_max,
        "denominator_bound": args.denominator_bound, "trials": args.trials, "seed": args.seed,
    })
    return (0 if report.passed else 1), report.extras["characterize"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishergeo",
        description="Fisher metric/co-metric calculus and verification batteries "
        "on finite probability simplices",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of characterize, and of verify unless the config has its own; "
        "the other commands draw nothing",
    )
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="pass threshold of duality; fisher and crb echo it, the other commands ignore it",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    fisher = sub.add_parser("fisher", help="Fisher information matrix and its inverse")
    fisher.add_argument("--model", required=True)
    fisher.add_argument("--xi", required=True, help="comma-separated parameter vector")
    fisher.set_defaults(handler=cmd_fisher)

    crb = sub.add_parser("crb", help="Cramér-Rao comparison for an estimator tuple")
    crb.add_argument("--model", required=True)
    crb.add_argument("--xi", required=True)
    crb.add_argument("--estimators", required=True)
    crb.add_argument("--mode", choices=("local", "global"), default="local")
    crb.add_argument("--box", default=None, help="global-mode box, e.g. '0.1:0.4,0.2:0.3'")
    crb.set_defaults(handler=cmd_crb)

    push = sub.add_parser("push", help="push a tangent vector through a channel")
    push.add_argument("--channel", required=True)
    push.add_argument("--p", required=True)
    push.add_argument("--vector", required=True)
    push.set_defaults(handler=cmd_push)

    pull = sub.add_parser("pull", help="pull a cotangent vector back through a channel")
    pull.add_argument("--channel", required=True)
    pull.add_argument("--p", required=True, help="base point on the channel input space")
    pull.add_argument("--vector", required=True, help="cotangent vector at the image point")
    pull.set_defaults(handler=cmd_pull)

    transport = sub.add_parser("transport", help="e/m parallel transport of a tangent vector")
    transport.add_argument("--mode", choices=("e", "m"), required=True)
    transport.add_argument("--vector", required=True)
    transport.add_argument("--to", required=True, help="target distribution JSON")
    transport.set_defaults(handler=cmd_transport)

    duality = sub.add_parser("duality", help="finite-difference check of e/m duality")
    duality.add_argument("--model", required=True)
    duality.add_argument("--xi", required=True)
    duality.add_argument("--step", type=float, default=1e-4)
    duality.add_argument("--i", type=int, default=0, help="index of the X coordinate field")
    duality.add_argument("--j", type=int, default=0, help="index of the Y coordinate field")
    duality.add_argument("--k", type=int, default=0, help="index of the Z coordinate field")
    duality.set_defaults(handler=cmd_duality)

    verify = sub.add_parser("verify", help="run a verification battery from a config file")
    verify.add_argument("--config", required=True, help="JSON with the battery and its parameters")
    verify.set_defaults(handler=cmd_verify)

    charz = sub.add_parser("characterize", help="decompose a candidate bilinear family")
    charz.add_argument("--family", required=True, help="grammar expression, e.g. 'COV' or '1*L2 + -1*MM'")
    charz.add_argument("--n-max", type=int, default=6, dest="n_max")
    charz.add_argument(
        "--denominator-bound", type=int, default=64, dest="denominator_bound"
    )
    charz.add_argument("--trials", type=int, default=8)
    charz.set_defaults(handler=cmd_characterize)

    return parser


def _emit(payload: dict | Exception, out_path: str | None) -> None:
    if isinstance(payload, Exception):
        payload = {"error": {"type": type(payload).__name__, "message": str(payload)}}
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _join_dashed_values(argv: list[str]) -> list[str]:
    """``--opt value`` as ``--opt=value`` where value starts with '-' and a
    digit, a dot, "inf" or "nan": argparse reads a separate ``-0.5,0.3``,
    ``-1e-4`` or ``-inf:0.4`` as an option, not as the value of the option
    before it."""
    joined: list[str] = []
    for arg in argv:
        previous = joined[-1] if joined else ""
        is_option = previous.startswith("--") and previous != "--" and "=" not in previous
        if is_option and _DASHED_VALUE.match(arg):
            joined[-1] = f"{previous}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dashed_values(sys.argv[1:] if argv is None else argv))
    try:
        if not 0.0 <= args.tol < math.inf:  # written so that NaN fails it
            raise InvalidParameter(f"--tol must be finite and >= 0, got {args.tol!r}")
        code, payload = args.handler(args)
    except (FisherGeoError, OSError, json.JSONDecodeError) as exc:
        code, payload = 2, exc
    try:
        _emit(payload, args.out)
    except OSError as exc:  # an unwritable --out is bad input too, reported on stdout;
        _emit(payload if code == 2 else exc, None)  # a run that failed keeps its own error
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
