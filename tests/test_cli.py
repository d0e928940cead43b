from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from fishergeo import errors
from fishergeo.verify import characterize

from conftest import GOLDEN_DIR, run_cli, run_cli_in_process
from test_acceptance import GOLDEN_COMMANDS

BERNOULLI = {"kind": "bernoulli"}
CATEGORICAL3 = {"kind": "categorical", "n": 3}
LINE_MODEL = {
    "kind": "affine",
    "n": 3,
    "p0": [0.0, 0.0, 1.0],
    "directions": [[1.0, 1.0, -2.0]],
}
EXPFAM2 = {"kind": "expfam", "stats": [[1.0, 0.0, -1.0], [0.0, 1.0, 0.5]]}
# deterministic channel of the fiber map (1, 1, 2)
COEMBED_112 = {
    "n_in": 3,
    "n_out": 2,
    "kernel": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
# canonical embedding channel of (1,1,2) through q = (1/4, 1/4, 1/2)
EMBED_112 = {
    "n_in": 2,
    "n_out": 3,
    "kernel": [[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]],
}


class TestFisher:
    def test_bernoulli(self, cli):
        code, out = cli.run_json(
            "fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.5"
        )
        assert code == 0
        assert np.allclose(out["G"], [[4.0]], atol=1e-12)
        assert np.allclose(out["G_inv"], [[0.25]], atol=1e-12)

    def test_categorical_uniform(self, cli):
        xi = f"{1 / 3!r},{1 / 3!r}"
        code, out = cli.run_json(
            "fisher", "--model", cli.file("m.json", CATEGORICAL3), "--xi", xi
        )
        assert code == 0
        assert np.allclose(out["G"], [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)

    def test_malformed_input_exits_2(self, cli):
        path = cli.dir / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        proc = cli.run("fisher", "--model", str(path), "--xi", "0.5")
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert "error" in payload and payload["error"]["type"]

    def test_missing_file_exits_2(self, cli):
        proc = cli.run("fisher", "--model", str(cli.dir / "nope.json"), "--xi", "0.5")
        assert proc.returncode == 2

    def test_malformed_parameter_vector_exits_2(self, cli):
        proc = cli.run("fisher", "--model", cli.file("m.json", CATEGORICAL3), "--xi", "0.3,abc")
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert error["message"].startswith("cannot parse parameter vector '0.3,abc'")

    def test_dashed_parameter_vector_as_separate_argument(self, cli):
        """``--xi -0.5,0.3`` is read as the value of --xi, not as an option."""
        model = cli.file("m.json", EXPFAM2)
        joined = cli.run("fisher", "--model", model, "--xi=-0.5,0.3")
        separate = cli.run("fisher", "--model", model, "--xi", "-0.5,0.3")
        assert joined.returncode == 0
        assert separate.returncode == 0 and separate.stdout == joined.stdout


class TestNonFiniteInput:
    """NaN input exits 2 with a typed error instead of a NaN report."""

    @staticmethod
    def assert_typed(proc):
        assert proc.returncode == 2
        kind = json.loads(proc.stdout)["error"]["type"]
        assert issubclass(getattr(errors, kind), errors.FisherGeoError), kind

    def test_nan_parameter(self, cli):
        self.assert_typed(
            cli.run("fisher", "--model", cli.file("m.json", CATEGORICAL3), "--xi", "nan,0.2")
        )

    def test_nan_expfam_stats(self, cli):
        model = {"kind": "expfam", "stats": [[float("nan"), 1.0, 0.0]]}
        self.assert_typed(cli.run("fisher", "--model", cli.file("m.json", model), "--xi", "0.3"))

    @pytest.mark.parametrize(
        "model, field",
        [
            ({"kind": "affine", "p0": [0.5, 0.5], "directions": [[float("nan")] * 2]}, "directions"),
            ({"kind": "affine", "p0": [0.5, 0.5], "directions": [[float("inf"), float("-inf")]]}, "directions"),
            ({"kind": "affine", "p0": [float("nan"), 0.5, 0.5], "directions": [[1.0, -1.0, 0.0]]}, "p0"),
            ({"kind": "expfam", "stats": [[float("inf"), 1.0, 0.0]]}, "stats"),
        ],
    )
    def test_non_finite_model_field_named(self, cli, model, field):
        proc = cli.run("fisher", "--model", cli.file("m.json", model), "--xi", "0.1")
        self.assert_typed(proc)
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert field in error["message"]

    def test_nan_base_point(self, cli):
        proc = cli.run(
            "push",
            "--channel", cli.file("w.json", COEMBED_112),
            "--p", cli.file("p.json", {"n": 3, "p": [float("nan"), 0.5, 0.5]}),
            "--vector", cli.file("x.json", {"p": [0.25, 0.25, 0.5], "m_rep": [1.0, 0.0, -1.0]}),
        )
        self.assert_typed(proc)
        assert json.loads(proc.stdout)["error"]["type"] == "NonPositiveWeight"


class TestPointShape:
    """A point given by its weights alone must be a flat list: a scalar or a
    nested list exits 2 with a typed size error, in every reader of one."""

    @staticmethod
    def assert_bad_size(proc):
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "BadSize"

    @pytest.mark.parametrize("point", [0.5, [[0.5, 0.5], [0.5, 0.5]]])
    def test_tangent_point(self, cli, point):
        self.assert_bad_size(cli.run(
            "push",
            "--channel", cli.file("w.json", COEMBED_112),
            "--p", cli.file("p.json", {"n": 3, "p": [0.25, 0.25, 0.5]}),
            "--vector", cli.file("x.json", {"p": point, "m_rep": [1.0, -1.0]}),
        ))

    @pytest.mark.parametrize("point", [0.5, [[0.5, 0.5], [0.5, 0.5]]])
    def test_cotangent_point(self, cli, point):
        self.assert_bad_size(cli.run(
            "pull",
            "--channel", cli.file("v.json", EMBED_112),
            "--p", cli.file("p.json", {"n": 2, "p": [0.5, 0.5]}),
            "--vector", cli.file("a.json", {"p": point, "rep": [1.0, -1.0]}),
        ))

    @pytest.mark.parametrize("point", [0.5, [[0.5, 0.5], [0.5, 0.5]]])
    def test_expfam_base_point(self, cli, point):
        model = {**EXPFAM2, "base": point}
        proc = cli.run("fisher", "--model", cli.file("m.json", model), "--xi", "0.1,0.2")
        self.assert_bad_size(proc)


P3 = [0.25, 0.25, 0.5]


@pytest.mark.parametrize(
    "field, command, inputs, shape",
    [
        ("p", "push", {
            "--channel": COEMBED_112, "--p": {"n": 3, "p": [[0.25], [0.25], [0.5]]},
            "--vector": {"p": P3, "m_rep": [1.0, 0.0, -1.0]},
        }, (3, 1)),
        ("m_rep", "push", {
            "--channel": COEMBED_112, "--p": {"n": 3, "p": P3},
            "--vector": {"p": P3, "m_rep": [[1.0], [0.0], [-1.0]]},
        }, (3, 1)),
        ("rep", "pull", {
            "--channel": EMBED_112, "--p": {"n": 2, "p": [0.5, 0.5]},
            "--vector": {"p": P3, "rep": [[1.0], [0.0], [-1.0]]},
        }, (3, 1)),
        ("values", "crb", {
            "--model": BERNOULLI, "--xi": "0.25",
            "--estimators": [{"n": 2, "values": [[1.0], [0.0]]}],
        }, (2, 1)),
        ("p0", "fisher", {
            "--model": {"kind": "affine", "p0": [[0.5], [0.5]], "directions": [[1.0, -1.0]]},
            "--xi": "0.1",
        }, (2, 1)),
    ],
    ids=["p", "m_rep", "rep", "values", "p0"],
)
def test_flat_field_must_be_a_flat_list(cli, field, command, inputs, shape):
    """A flat field given as a nested list exits 2 with a BadSize naming it,
    as a point's weights do, instead of being flattened; an estimator's
    field is named with the estimator's index."""
    args = [command]
    for flag, value in inputs.items():
        args += [flag, value if isinstance(value, str) else cli.file(f"{flag[2:]}.json", value)]
    proc = cli.run(*args)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "BadSize"
    item = "estimators[0]: " if command == "crb" else ""
    assert error["message"] == f"{item}{field} must be a flat list of numbers, got shape {shape}"


class TestCrb:
    def test_bernoulli_equality(self, cli):
        code, out = cli.run_json(
            "crb",
            "--model", cli.file("m.json", BERNOULLI),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 2, "values": [1.0, 0.0]}]),
        )
        assert code == 0
        assert out["verdict"] == "psd" and out["equality"]
        assert np.allclose(out["V"], [[0.1875]], atol=1e-14)

    def test_line_model_strict(self, cli):
        code, out = cli.run_json(
            "crb",
            "--model", cli.file("m.json", LINE_MODEL),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 3, "values": [1.0, 0.0, 0.0]}]),
        )
        assert code == 0
        assert out["verdict"] == "psd" and not out["equality"]
        assert out["min_eigenvalue"] == pytest.approx(0.125, rel=1e-12)

    def test_unbiasedness_failure_exits_2(self, cli):
        proc = cli.run(
            "crb",
            "--model", cli.file("m.json", LINE_MODEL),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 3, "values": [1.0, 1.0, 0.0]}]),
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "NotLocallyUnbiased"

    def test_scalar_estimator_values_exit_2(self, cli):
        """A scalar where a list of values belongs is a typed size error."""
        proc = cli.run(
            "crb",
            "--model", cli.file("m.json", BERNOULLI),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 2, "values": 3.0}]),
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "SizeMismatch"

    def test_a_bad_estimator_is_named(self, cli):
        """An error in one estimator of the file names its index."""
        proc = cli.run(
            "crb",
            "--model", cli.file("m.json", BERNOULLI),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 2, "values": [1, 0]}, {"n": 3, "values": [0, 1]}]),
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error == {"type": "SizeMismatch", "message": "estimators[1]: n is 3, but values has 2 values"}

    @pytest.mark.parametrize(
        "box, axis",
        [
            ("0.1", "'0.1'"), ("0.1:x", "'0.1:x'"), ("0.1:0.4,0.2", "'0.2'"),
            ("0.2:0.1", "'0.2:0.1'"), ("0.1:0.4,0.3:0.2", "'0.3:0.2'"),
            ("0.1:inf", "'0.1:inf'"), ("0.1:0.4,-inf:0.4", "'-inf:0.4'"), ("nan:0.4", "'nan:0.4'"),
        ],
    )
    def test_malformed_box_exits_2(self, cli, box, axis):
        """A box axis that is not lo:hi with finite bounds and lo <= hi is a
        typed input error naming the axis."""
        proc = cli.run(
            "crb",
            "--model", cli.file("m.json", BERNOULLI),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 2, "values": [1.0, 0.0]}]),
            "--mode", "global",
            "--box", box,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert f"box axis {axis} is not lo:hi" in error["message"]


    @pytest.mark.parametrize("bound", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_dashed_non_finite_box_as_separate_argument(self, cli, bound):
        """``--box -inf:0.4`` reaches the box reader, as ``--box=-inf:0.4`` does,
        and prints the same typed error."""
        args = [
            "crb",
            "--model", cli.file("m.json", BERNOULLI),
            "--xi", "0.25",
            "--estimators", cli.file("est.json", [{"n": 2, "values": [1.0, 0.0]}]),
            "--mode", "global",
        ]
        joined = cli.run(*args, f"--box={bound}:0.4")
        separate = cli.run(*args, "--box", f"{bound}:0.4")
        assert joined.returncode == 2
        assert json.loads(joined.stdout)["error"]["type"] == "InvalidParameter"
        assert (separate.returncode, separate.stdout) == (joined.returncode, joined.stdout)
        assert separate.stderr == b""


class TestPushPull:
    def test_push_block_sums(self, cli):
        code, out = cli.run_json(
            "push",
            "--channel", cli.file("w.json", COEMBED_112),
            "--p", cli.file("p.json", {"n": 3, "p": [0.25, 0.25, 0.5]}),
            "--vector", cli.file(
                "x.json", {"p": [0.25, 0.25, 0.5], "m_rep": [1.0, 0.0, -1.0]}
            ),
        )
        assert code == 0
        assert out["m_rep"] == [1.0, -1.0]
        assert out["p"] == [0.5, 0.5]

    def test_push_identity_echoes(self, cli):
        identity = {"n_in": 2, "n_out": 2, "kernel": [[1.0, 0.0], [0.0, 1.0]]}
        code, out = cli.run_json(
            "push",
            "--channel", cli.file("w.json", identity),
            "--p", cli.file("p.json", {"n": 2, "p": [0.3, 0.7]}),
            "--vector", cli.file("x.json", {"p": [0.3, 0.7], "m_rep": [0.2, -0.2]}),
        )
        assert code == 0 and out["m_rep"] == [0.2, -0.2]

    def test_pull_conditional_expectation(self, cli):
        # covector of B = (1,2,3) at q = (1/4,1/4,1/2), pulled to q^F
        rep = [1.0 - 2.25, 2.0 - 2.25, 3.0 - 2.25]
        code, out = cli.run_json(
            "pull",
            "--channel", cli.file("v.json", EMBED_112),
            "--p", cli.file("p.json", {"n": 2, "p": [0.5, 0.5]}),
            "--vector", cli.file("a.json", {"p": [0.25, 0.25, 0.5], "rep": rep}),
        )
        assert code == 0
        # E_V(B|.) = (1.5, 3.0), centered at (1/2, 1/2)
        assert out["p"] == [0.5, 0.5]
        assert np.allclose(out["rep"], [-0.75, 0.75], atol=1e-12)

    def test_pull_base_mismatch_exits_2(self, cli):
        rep = [-1.25, -0.25, 0.75]
        proc = cli.run(
            "pull",
            "--channel", cli.file("v.json", EMBED_112),
            "--p", cli.file("p.json", {"n": 2, "p": [0.4, 0.6]}),
            "--vector", cli.file("a.json", {"p": [0.25, 0.25, 0.5], "rep": rep}),
        )
        assert proc.returncode == 2


class TestTransport:
    def test_e_transport(self, cli):
        code, out = cli.run_json(
            "transport",
            "--mode", "e",
            "--vector", cli.file("x.json", {"p": [0.5, 0.5], "m_rep": [1.0, -1.0]}),
            "--to", cli.file("q.json", {"n": 2, "p": [0.25, 0.75]}),
        )
        assert code == 0
        assert np.allclose(out["m_rep"], [0.75, -0.75], atol=1e-14)

    def test_m_transport(self, cli):
        code, out = cli.run_json(
            "transport",
            "--mode", "m",
            "--vector", cli.file("x.json", {"p": [0.5, 0.5], "m_rep": [1.0, -1.0]}),
            "--to", cli.file("q.json", {"n": 2, "p": [0.25, 0.75]}),
        )
        assert code == 0 and out["m_rep"] == [1.0, -1.0]


    def test_a_point_of_another_length_names_n_and_p(self, cli):
        proc = cli.run(
            "transport",
            "--mode", "m",
            "--vector", cli.file("x.json", {"p": [0.5, 0.5], "m_rep": [1.0, -1.0]}),
            "--to", cli.file("q.json", {"n": 4, "p": [0.25, 0.75]}),
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error == {"type": "SizeMismatch", "message": "n is 4, but p has 2 weights"}


class TestDuality:
    def test_bernoulli_passes(self, cli):
        code, out = cli.run_json(
            "duality", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.3"
        )
        assert code == 0 and out["pass"]
        assert out["residual"] <= 1e-6

    def test_dashed_step_as_separate_argument_exits_2(self, cli):
        proc = cli.run(
            "duality", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.3", "--step", "-1e-4"
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "InvalidParameter"

    @pytest.mark.parametrize("step", ["0", "-1e-4", "nan"])
    def test_bad_step_exits_2(self, cli, step):
        proc = cli.run(
            "duality", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.3",
            f"--step={step}",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "InvalidParameter"


    @pytest.mark.parametrize("step", ["1e-17", "1e-300", "5e-324"])
    @pytest.mark.parametrize("model", ["line_model.json", "bernoulli"])
    def test_step_that_vanishes_against_xi_exits_2(self, cli, step, model):
        """At xi = 0.3 each of these steps is lost in xi +- step: the central
        differences would read 0 and the check pass without evaluating anything."""
        path = str(GOLDEN_DIR / "inputs" / model) if model.endswith(".json") else cli.file("m.json", BERNOULLI)
        proc = cli.run("duality", "--model", path, "--xi", "0.3", "--step", step)
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter" and "vanishes" in error["message"]

    def test_smallest_step_that_moves_xi_is_evaluated(self, cli):
        """A step of one ulp of xi is not lost: the stencil is evaluated, and
        its central difference of about 1e-16 fails a later check."""
        code, out = cli.run_json(
            "duality", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.3",
            "--step", repr(float(np.spacing(0.3))),
        )
        assert code == 2 and out["error"]["type"] == "NotSumZero"


class TestTolerance:
    """``--tol`` must be finite and >= 0. Another value is bad input, rejected
    before any handler runs: a NaN would be written as ``"tol": NaN``, which
    is not JSON, and a negative one would fail every residual check."""

    @staticmethod
    def strict_json(text: bytes) -> dict:
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize("tol", ["nan", "NaN", "inf", "-inf", "-1", "-1e-300"])
    @pytest.mark.parametrize("command", ["fisher", "duality", "verify"])
    def test_bad_tol_exits_2_before_the_handler(self, cli, monkeypatch, tol, command):
        from fishergeo import cli as cli_module

        def handler(args):
            raise AssertionError("the handler ran")

        monkeypatch.setattr(cli_module, f"cmd_{command}", handler)
        inputs = {
            "fisher": ["--model", cli.file("m.json", BERNOULLI), "--xi", "0.5"],
            "duality": ["--model", cli.file("m.json", BERNOULLI), "--xi", "0.3"],
            "verify": ["--config", cli.file("c.json", {"battery": "strong_invariance", "trials": 1})],
        }[command]
        proc = cli.run("--tol", tol, command, *inputs)
        assert proc.returncode == 2
        error = self.strict_json(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert error["message"] == f"--tol must be finite and >= 0, got {float(tol)!r}"

    @pytest.mark.parametrize("tol", ["0", "1e-300", "0.5"])
    def test_finite_nonnegative_tol_is_reported(self, cli, tol):
        proc = cli.run("--tol", tol, "fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.5")
        assert proc.returncode == 0
        assert self.strict_json(proc.stdout)["tolerances"]["tol"] == float(tol)

    def test_tol_decides_the_duality_verdict(self, cli):
        model = cli.file("m.json", BERNOULLI)
        code, out = cli.run_json("--tol", "0", "duality", "--model", model, "--xi", "0.3")
        assert out["residual"] > 0.0 and code == 1 and not out["pass"]


class TestVerify:
    def test_characterize_battery_cov(self, cli):
        config = {
            "battery": "characterize",
            "family": "COV",
            "n_max": 4,
            "denominator_bound": 16,
            "trials": 2,
            "seed": 0,
        }
        code, out = cli.run_json("verify", "--config", cli.file("c.json", config))
        assert code == 0
        assert out["pass"] is True
        assert out["characterize"]["verdict"] == "c*Cov with c=1"

    def test_characterize_battery_pk2_witness(self, cli):
        config = {
            "battery": "characterize",
            "family": "PK(2)",
            "n_max": 4,
            "denominator_bound": 16,
            "trials": 2,
            "seed": 0,
        }
        code, out = cli.run_json("verify", "--config", cli.file("c.json", config))
        assert code == 1
        assert out["witnesses"]

    def test_strong_invariance_battery(self, cli):
        config = {"battery": "strong_invariance", "trials": 25, "n_max": 6, "seed": 4}
        code, out = cli.run_json("verify", "--config", cli.file("c.json", config))
        assert code == 0 and out["pass"]

    def test_unknown_battery_exits_2(self, cli):
        proc = cli.run(
            "verify", "--config", cli.file("c.json", {"battery": "wat", "seed": 0})
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "config, kind", [(["battery"], "list"), ("battery", "str"), (5, "int")]
    )
    def test_config_not_an_object_exits_2(self, cli, config, kind):
        proc = cli.run("verify", "--config", cli.file("c.json", config))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert error["message"] == f"a battery config is a JSON object, not {kind}"

    @pytest.mark.parametrize("battery", [[], {"a": 1}])
    def test_battery_not_a_name_exits_2(self, cli, battery):
        proc = cli.run("verify", "--config", cli.file("c.json", {"battery": battery, "seed": 0}))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert error["message"] == f"battery must be a name (a string), not {battery!r}"

    @pytest.mark.parametrize("flag", ["--alpha", "--step", "--grid"])
    def test_battery_parameters_come_from_the_config(self, cli, flag):
        """weak_invariance's alphas, step and grid_count are config keys, not options."""
        config = cli.file("c.json", {"battery": "strong_invariance", "trials": 2, "seed": 0})
        proc = cli.run("verify", "--config", config, flag, "1")
        assert proc.returncode == 2
        assert b"unrecognized arguments" in proc.stderr

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"battery": "strong_invariance", "trials": True}, "trials"),
            ({"battery": "strong_invariance", "n_max": 3.0}, "n_max"),
            ({"battery": "strong_invariance", "seed": 1.0}, "seed"),
            ({"battery": "strong_invariance", "trials": "5"}, "trials"),
            ({"battery": "strong_invariance", "n_max": float("inf")}, "n_max"),
            ({"battery": "weak_invariance", "mismatched": "no"}, "mismatched"),
            ({"battery": "weak_invariance", "step": float("nan")}, "step"),
            ({"battery": "characterize", "family": "COV", "denominator_bound": True},
             "denominator_bound"),
        ],
    )
    def test_wrong_value_types_exit_2_naming_the_key(self, cli, config, key):
        """Each of these once ran, echoed a bool, or failed with a raw error."""
        proc = cli.run("verify", "--config", cli.file("c.json", config))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter"
        assert error["message"].startswith(f"{key} must be")

    @pytest.mark.parametrize("mismatched", [False, True])
    def test_weak_invariance_step_that_vanishes_exits_2(self, cli, mismatched):
        """Once exit 0 with a max_residual of 0.0, and a control that read 0.0."""
        config = {"battery": "weak_invariance", "n_max": 4, "step": 1e-300, "mismatched": mismatched}
        proc = cli.run("verify", "--config", cli.file("c.json", config))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter" and "vanishes" in error["message"]

    def test_overflowing_size_exits_2(self, cli):
        # 1e400 parses as inf: no int, and no OverflowError traceback
        path = cli.dir / "c.json"
        path.write_text('{"battery": "crb", "n_max": 1e400}', encoding="utf-8")
        proc = cli.run("verify", "--config", str(path))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["message"] == "n_max must be an integer, not inf"


class TestCharacterizeCommand:
    def test_cov(self, cli):
        code, out = cli.run_json(
            "characterize", "--family", "COV", "--n-max", "4",
            "--denominator-bound", "16", "--trials", "2",
        )
        assert code == 0
        assert (out["c1"], out["c2"]) == (1.0, -1.0)
        assert out["ii1_holds"] is True

    def test_pk2_exits_1(self, cli):
        proc = cli.run(
            "characterize", "--family", "PK(2)", "--n-max", "4",
            "--denominator-bound", "16", "--trials", "2",
        )
        assert proc.returncode == 1

    # PK(+-400) overflows and underflows on purpose.
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
    )
    @pytest.mark.parametrize(
        "family", ["COV", "PK(2)", "1*L2 + 0.5*MM", "PK(400)", "PK(-400)", "PK(-40)"]
    )
    def test_prints_the_probe_result(self, capsys, family):
        """The subcommand runs the characterize battery and prints the probe's
        own result, with its exit code."""
        from fishergeo import cli as cli_module

        code = cli_module.main([
            "--seed", "3", "characterize", "--family", family, "--n-max", "4",
            "--denominator-bound", "16", "--trials", "2",
        ])
        result = characterize(family, n_max=4, denominator_bound=16, trials=2, seed=3)
        assert capsys.readouterr().out == json.dumps(result.to_json(), indent=2) + "\n"
        assert code == (0 if result.passed else 1)

    @pytest.mark.parametrize("command", ["characterize", "prop6"])
    def test_non_finite_coefficient_exits_2(self, cli, command):
        """``1e400*L2`` once crashed characterize with exit 1 and made prop6
        exit 2 with a misleading NaN witness gap; both now reject the family."""
        if command == "characterize":
            proc = cli.run("characterize", "--family", "1e400*L2")
        else:
            config = {"battery": "prop6", "family": "1e400*L2", "trials": 20, "n_max": 6}
            proc = cli.run("verify", "--config", cli.file("c.json", config))
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error == {
            "type": "FamilyParseError",
            "message": "coefficient of term '1e400*L2' is not a finite number",
        }

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--trials", "0", "trials"), ("--trials", "-3", "trials"),
            ("--n-max", "1", "n_max"), ("--denominator-bound", "1", "denominator_bound"),
        ],
    )
    def test_flags_are_read_as_battery_keys(self, cli, flag, value, key):
        proc = cli.run("characterize", "--family", "COV", flag, value)
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter" and error["message"].startswith(key)


class TestEntryPoints:
    def test_package_runs_the_cli(self):
        """``python -m fishergeo`` prints the golden that ``python -m fishergeo.cli`` does."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "fishergeo", "--seed", "0", "characterize",
                "--family", "COV", "--n-max", "4", "--denominator-bound", "16", "--trials", "2",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "expected" / "characterize_cov.json").read_bytes()

    def test_in_process_runs_are_the_subprocess_runs(self):
        """The ``cli`` fixture runs ``cli.main`` in the test process: on every
        golden command it gives the bytes and the exit code of a fresh
        process."""
        assert len(GOLDEN_COMMANDS) == 8
        for name, args in GOLDEN_COMMANDS.items():
            resolved = [str(GOLDEN_DIR / a) if a.startswith("inputs/") else a for a in args]
            fresh, here = run_cli("--seed", "0", *resolved), run_cli_in_process("--seed", "0", *resolved)
            assert (here.returncode, here.stdout, here.stderr) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), name
            assert here.stdout == (GOLDEN_DIR / "expected" / f"{name}.json").read_bytes(), name


class TestOutputContract:
    def test_out_flag_writes_file(self, cli):
        out_path = cli.dir / "report.json"
        proc = cli.run(
            "--out", str(out_path),
            "fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.5",
        )
        assert proc.returncode == 0
        assert proc.stdout == b""
        payload = json.loads(out_path.read_text())
        assert payload["G"] == [[4.0]]

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    @pytest.mark.parametrize("failing", [False, True])
    def test_unwritable_out_exits_2_with_the_error_on_stdout(self, cli, where, failing):
        """A path in a missing directory, or a directory: a file error, so bad
        input. The error object goes to stdout: the --out error, or the
        error of a run that already failed."""
        out_path = cli.dir / "no" / "such" / "x.json" if where == "missing_dir" else cli.dir
        xi = "nan" if failing else "0.5"
        proc = cli.run(
            "--out", str(out_path), "fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", xi,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        if failing:
            assert error["type"] == "InvalidParameter"
        else:
            expected = "FileNotFoundError" if where == "missing_dir" else "IsADirectoryError"
            assert error["type"] == expected and str(out_path) in error["message"]
        assert not (cli.dir / "no").exists()

    def test_unwritable_out_in_a_subprocess(self, tmp_path):
        proc = run_cli(
            "--out", str(tmp_path / "missing" / "x.json"),
            "fisher", "--model", str(GOLDEN_DIR / "inputs" / "line_model.json"), "--xi", "0.3",
        )
        assert proc.returncode == 2 and proc.stderr == b""
        assert json.loads(proc.stdout)["error"]["type"] == "FileNotFoundError"

    def test_fixed_key_order(self, cli):
        code, out_first = cli.run_json(
            "fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.5"
        )
        assert list(out_first) == ["G", "G_inv", "tolerances"]


class TestInputErrors:
    """Exit 2 is for bad input only: JSON fields are read in their types, and
    an error that is not the package's own is a bug, shown as a traceback."""

    @pytest.mark.parametrize(
        "p, key",
        [
            ({"n": 3.7, "p": [0.25, 0.25, 0.5]}, "n"),
            ({"n": True, "p": [0.5, 0.5]}, "n"),
            ({"n": "abc", "p": [0.5, 0.5]}, "n"),
            ({"n": [2], "p": [0.5, 0.5]}, "n"),
            ({"n": 2, "p": "ab"}, "p"),
        ],
    )
    def test_distribution_fields_are_typed(self, cli, p, key):
        proc = cli.run(
            "transport", "--mode", "m",
            "--vector", cli.file("x.json", {"p": [0.5, 0.5], "m_rep": [1.0, -1.0]}),
            "--to", cli.file("q.json", p),
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InvalidParameter" and error["message"].startswith(key)

    def test_ragged_kernel_exits_2(self, cli):
        proc = cli.run(
            "push",
            "--channel", cli.file("w.json", {**COEMBED_112, "kernel": [[1.0, 1.0, 0.0], [0.0]]}),
            "--p", cli.file("p.json", {"n": 3, "p": [0.25, 0.25, 0.5]}),
            "--vector", cli.file("x.json", {"p": [0.25, 0.25, 0.5], "m_rep": [1.0, 0.0, -1.0]}),
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["message"].startswith("kernel")

    def test_undecodable_file_exits_2(self, cli):
        path = cli.dir / "m.json"
        path.write_bytes(b"\xff\xfe")
        proc = cli.run("fisher", "--model", str(path), "--xi", "0.5")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "InvalidParameter"

    @pytest.mark.parametrize("bug", [ValueError, TypeError, KeyError, np.linalg.LinAlgError])
    def test_a_bug_is_not_reported_as_bad_input(self, cli, monkeypatch, bug):
        from fishergeo import cli as cli_module

        def broken(*args, **kwargs):
            raise bug("bug inside the library")

        monkeypatch.setattr(cli_module, "fisher_info", broken)
        with pytest.raises(bug, match="bug inside the library"):
            cli_module.main(["fisher", "--model", cli.file("m.json", BERNOULLI), "--xi", "0.5"])
