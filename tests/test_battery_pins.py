"""Byte-exact pins of every battery report.

Each config runs in-process through ``run_battery`` and its report must
serialize exactly as the checked-in file under ``golden/batteries/``.
Regenerate a pin only for a deliberate output change:

    PYTHONPATH=src python tests/test_battery_pins.py
"""
from __future__ import annotations

import json

import pytest

from fishergeo.batteries import run_battery
from fishergeo.verify import Witness, replay_witness

from conftest import GOLDEN_DIR

PIN_DIR = GOLDEN_DIR / "batteries"

PINS = {
    "monotonicity_metric": {"battery": "monotonicity_metric", "trials": 60, "n_max": 6, "seed": 1},
    "monotonicity_cometric": {"battery": "monotonicity_cometric", "trials": 60, "n_max": 6, "seed": 2},
    "invariance": {"battery": "invariance", "trials": 40, "n_max": 8, "seed": 3},
    "strong_invariance_n8": {"battery": "strong_invariance", "trials": 20, "n_max": 8, "seed": 4},
    "prop6_cov": {"battery": "prop6", "trials": 40, "n_max": 6, "seed": 5, "family": "COV"},
    "prop6_pk2": {"battery": "prop6", "trials": 12, "n_max": 5, "seed": 6, "family": "PK(2)"},
    "crb": {"battery": "crb", "trials": 40, "n_max": 4, "seed": 7},
    "weak_invariance": {"battery": "weak_invariance", "n_max": 4, "seed": 8, "grid_count": 2},
    "weak_invariance_mismatched": {
        "battery": "weak_invariance", "n_max": 3, "seed": 9, "grid_count": 2, "mismatched": True,
    },
    "characterize_pk2": {
        "battery": "characterize", "family": "PK(2)", "n_max": 4,
        "denominator_bound": 16, "trials": 2, "seed": 10,
    },
}


def render(name: str) -> str:
    return json.dumps(run_battery(dict(PINS[name])).to_json(), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(PINS))
def test_battery_report_pinned(name):
    expected = (PIN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert render(name) == expected


@pytest.mark.parametrize("name", ["prop6_pk2", "characterize_pk2"])
def test_every_pinned_witness_replays_from_its_bytes(name):
    """Each witness of a pin, read from the committed file by
    ``Witness.from_json``, replays to its stored gap bitwise."""
    report = json.loads((PIN_DIR / f"{name}.json").read_bytes())
    payloads = report["witnesses"]
    if "characterize" in report:
        payloads.append(report["characterize"]["witness"])
    assert payloads
    for payload in payloads:
        assert float(replay_witness(Witness.from_json(payload))).hex() == float(payload["gap"]).hex()


if __name__ == "__main__":
    PIN_DIR.mkdir(exist_ok=True)
    for pin in PINS:
        (PIN_DIR / f"{pin}.json").write_text(render(pin), encoding="utf-8")
