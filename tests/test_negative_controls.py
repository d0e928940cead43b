"""Standing negative controls: the pair batteries fail on a wrong metric.

A battery that passes on correct code shows nothing unless it also fails on
wrong code. Each mutant below replaces the Fisher metric sum(x * y / p) by
another bilinear form, patched into ``geometry.fisher_metric_rows`` and into
``verify``'s binding of it, so every metric the kernels evaluate is the
mutant's. The two pair batteries then run at 100 trials, ``n_max`` 8 and
seed 0, and each must catch the mutant in the recorded number of trials.

Both mutants are symmetric bilinear forms, so they break only the identities
that tie the metric to the point: Euclidean (p^0) and p^2 weights are not
preserved by Markov embeddings. The monotonicity batteries are not listed:
their dense random channels stay far from the equality case, so they are all
but blind to these mutants.
"""
from __future__ import annotations

import pytest

from fishergeo import geometry, verify
from fishergeo.batteries import run_battery
from fishergeo.simplex import Distribution


def metric_over_p_power(power: int):
    """The form sum(x * y / p**power), as ``fisher_metric_rows`` takes its arguments."""

    def rows(p, xs, ys):
        w = p.weights if isinstance(p, Distribution) else p
        return (xs[..., :, None, :] * ys[..., None, :, :] / w[..., None, None, :] ** power).sum(axis=-1)

    return rows


#: (mutant power of p, battery, witnesses in 100 trials at n_max 8, seed 0)
CAUGHT = [
    (0, "invariance", 100),
    (0, "strong_invariance", 100),
    (2, "invariance", 99),
    (2, "strong_invariance", 100),
]


@pytest.mark.parametrize("power, battery, caught", CAUGHT)
def test_metric_mutant_is_caught(monkeypatch, power, battery, caught):
    mutant = metric_over_p_power(power)
    monkeypatch.setattr(geometry, "fisher_metric_rows", mutant)
    monkeypatch.setattr(verify, "fisher_metric_rows", mutant)
    report = run_battery({"battery": battery, "trials": 100, "n_max": 8, "seed": 0})
    assert report.status == "violation"
    assert len(report.witnesses) == caught


@pytest.mark.parametrize("battery", ["invariance", "strong_invariance"])
def test_the_mutant_of_power_one_is_the_metric(monkeypatch, battery):
    """The control of the controls: the form at power 1 is the metric, and
    the battery's report is the unpatched one."""
    config = {"battery": battery, "trials": 100, "n_max": 8, "seed": 0}
    expected = run_battery(config).to_json()
    mutant = metric_over_p_power(1)
    monkeypatch.setattr(geometry, "fisher_metric_rows", mutant)
    monkeypatch.setattr(verify, "fisher_metric_rows", mutant)
    assert run_battery(config).to_json() == expected
    assert expected["status"] == "pass"
