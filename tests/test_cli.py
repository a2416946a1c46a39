import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc import cli, pricing
from driftcalc.cli import build_parser, main
from driftcalc.errors import EngineError
from driftcalc.modelio import (
    MAX_GRID_POINTS,
    ModelFormatError,
    load_model,
    parse_grid,
    parse_model,
    serialize_model,
)

from conftest import raw_prefix, raw_trees

GBM_MODEL = {
    "type": "levy",
    "dim": 2,
    "b": [0.05, 0.02],
    "c": [[0.04, 0.006], [0.006, 0.01]],
    "truncation": ["unit_clip", "unit_clip"],
    "jumps": [],
}

MERTON_MODEL = {
    "type": "levy",
    "dim": 1,
    "b": [0.05],
    "c": [[0.04]],
    "truncation": ["unit_clip"],
    "jumps": [
        {"kind": "gaussian_push", "lambda": 0.8, "mean": [-0.05], "cov": [[0.04]]},
        {"kind": "atoms", "atoms": [{"x": [0.25], "intensity": 0.1}]},
    ],
}

TRINOMIAL_MODEL = {
    "type": "discrete",
    "support": [
        {"x": [math.log(1.1)], "p": 0.3},
        {"x": [0.0], "p": 0.4},
        {"x": [math.log(0.9)], "p": 0.3},
    ],
}

MARGRABE_MODEL = {
    "type": "margrabe",
    "spot1": 100.0,
    "spot2": 100.0,
    "maturity": 1.0,
    "diffusion": {"sigma1_sq": 0.04, "sigma12": 0.03, "sigma2_sq": 0.09},
}


# the levy example of docs/model-schema.md
DOC_LEVY_MODEL = {
    "type": "levy", "dim": 2, "b": [0.05, 0.02], "c": [[0.04, 0.006], [0.006, 0.01]],
    "truncation": ["unit_clip", "unit_clip"],
    "jumps": [
        {"kind": "atoms", "atoms": [{"x": [0.1, -0.05], "intensity": 0.25}]},
        {"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1, -0.05],
         "cov": [[0.0625, 0.02], [0.02, 0.0625]]},
    ],
}


# the one-dimensional marginal of the levy example in docs/model-schema.md
DOC_MARGINAL_MODEL = {
    "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
    "jumps": [
        {"kind": "atoms", "atoms": [{"x": [0.1], "intensity": 0.25}]},
        {"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1], "cov": [[0.0625]]},
    ],
}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [GBM_MODEL, MERTON_MODEL, TRINOMIAL_MODEL, MARGRABE_MODEL])
    def test_parse_serialise_parse(self, doc):
        model = parse_model(doc)
        doc2 = serialize_model(model)
        model2 = parse_model(doc2)
        assert serialize_model(model2) == doc2

    def test_levy_fields_survive(self):
        model = parse_model(MERTON_MODEL)
        assert isinstance(model, dc.LevyTriplet)
        assert model.jumps.total_mass() == pytest.approx(0.9)
        doc = serialize_model(model)
        assert doc["truncation"] == ["unit_clip"]

    def test_unknown_type_rejected(self):
        with pytest.raises(ModelFormatError, match="unknown model type"):
            parse_model({"type": "mystery"})

    def test_missing_file_reported(self):
        with pytest.raises(ModelFormatError, match="not found"):
            load_model("/nonexistent/model.json")


class TestGrids:
    def test_cross_product(self):
        grid = parse_grid({"re": {"start": 0, "stop": 1, "count": 3}, "im": {"start": -1, "stop": 1, "count": 2}})
        assert grid.shape == (6,)
        assert grid[0] == 0.0 - 1.0j

    def test_constant_axis(self):
        grid = parse_grid({"re": -0.5, "im": {"start": 0, "stop": 10, "count": 5}})
        assert np.all(grid.real == -0.5)

    @pytest.mark.parametrize("text, message", [
        ('{"re": {"start": 0, "stop": 1, "count": 2.7}}', "re axis 'count' must be an integer >= 1, got 2.7"),
        ('{"re": {"start": 0, "stop": 1, "count": true}}', "re axis 'count' must be an integer >= 1, got True"),
        ('{"re": {"start": 0, "stop": 1, "count": "3"}}', "re axis 'count' must be an integer >= 1, got '3'"),
        ('{"re": {"start": 0, "stop": 1, "count": 0}}', "re axis 'count' must be an integer >= 1, got 0"),
        ('{"re": {"start": 0, "stop": 1, "count": 1e12}}', "re axis 'count' must be an integer >= 1"),
        ('{"re": true}', "re axis must be a finite number, got True"),
        ('{"re": [0, 1]}', "re axis must be a finite number, got [0, 1]"),
        ('{"im": {"start": false, "stop": 1, "count": 2}}', "im axis 'start' must be a finite number, got False"),
        ('{"re": {"start": 0, "stop": Infinity, "count": 3}}', "re axis 'stop' must be a finite number, got inf"),
        ('{"re": NaN}', "re axis must be a finite number, got nan"),
        ('{"re": {"start": -1e308, "stop": 1e308, "count": 3}}', "re axis is wider than the float range"),
        ('{"re": {"start": 0, "stop": 1, "count": 1000000000000}}',
         "grid has 1000000000000 x 1 points; at most 1000000 are allowed"),
        ('{"re": {"start": 0, "stop": 1, "count": 1001}, "im": {"start": 0, "stop": 1, "count": 1000}}',
         "grid has 1001 x 1000 points"),
        ('{"Re": {"start": 0, "stop": 2, "count": 3}}', "grid has unknown key 'Re'; allowed keys are 're', 'im'"),
        ('{"re": 1, "imag": 2}', "grid has unknown key 'imag'"),
        ('{"re": {"start": 0, "stop": 1, "count": 3, "num": 50}}',
         "re axis has unknown key 'num'; allowed keys are 'start', 'stop', 'count'"),
    ])
    def test_malformed_axes_are_rejected(self, text, message):
        with pytest.raises(ModelFormatError) as info:
            parse_grid(json.loads(text))
        assert str(info.value).startswith(message)

    def test_axes_are_numpys_linspace_bit_for_bit(self):
        # count 1 and 2, reversed axes, zero width (also -0.0 to 0.0) and
        # a width whose step underflows, then random axes
        rng = np.random.default_rng(40)
        axes = [(0.3, 0.3, 5), (-0.0, 0.0, 3), (0.0, -0.0, 4), (0.0, 1e-320, 7), (2.0, -1.5, 9),
                (1.5, 7.0, 1), (-3.0, 1.0, 2), (1e300, -1e300, 11)]
        for _ in range(500):
            start, stop = rng.normal(0.0, 10.0 ** rng.integers(-6, 6), 2).tolist()
            count = int(rng.choice([1, 2, 3, 17, 101, int(rng.integers(1, 1000))]))
            axes.append((start, start if rng.random() < 0.1 else stop, count))
        for (start, stop, count), other in zip(axes, itertools.cycle(axes[::-1])):
            want = np.linspace(start, stop, count)
            assert pricing._linspace(start, stop, count).tobytes() == want.tobytes()
            spec = {"start": start, "stop": stop, "count": count}
            real = np.linspace(*other)  # the grid is the cross product, as numpy makes it
            grid = parse_grid({"re": dict(zip(("start", "stop", "count"), other)), "im": spec})
            assert grid.tobytes() == (real[:, None] + 1j * want[None, :]).ravel().tobytes()

    def test_largest_grid_is_accepted(self):
        side = math.isqrt(MAX_GRID_POINTS)
        grid = parse_grid({"re": {"start": 0, "stop": 1, "count": side},
                           "im": {"start": 0, "stop": 1, "count": MAX_GRID_POINTS // side}})
        assert grid.size == MAX_GRID_POINTS

    @pytest.mark.parametrize("axis", [
        '{"start": 0, "stop": Infinity, "count": 3}', '{"start": 0, "stop": 1, "count": 1e12}',
        '{"start": 0, "stop": 1, "count": 2.7}', "true",
    ])
    def test_malformed_axis_is_exit_two_without_numpy_output(self, model_file, capsys, axis):
        code = main(["cumulant", "--model", model_file(MERTON_MODEL), "--v-grid", f'{{"re": {axis}}}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "re axis" in captured.err
        assert "Warning" not in captured.err


class TestCommands:
    def test_drift_ratio(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(GBM_MODEL), "--xi", "ratio",
        ])
        assert code == 0
        assert float(doc["total"][0]) == pytest.approx(0.034, abs=1e-15)

    def test_drift_identity_echoes_b(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(GBM_MODEL), "--xi", "identity",
            "--xi-params", '{"dim": 2}',
        ])
        assert code == 0
        assert [float(x) for x in doc["total"]] == pytest.approx([0.05, 0.02])

    def test_drift_with_retruncation(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(MERTON_MODEL), "--xi", "exp_affine",
            "--xi-params", '{"v": "0.9"}', "--truncation", "identity",
        ])
        assert code == 0

    def test_drift_with_custom_tree(self, model_file, capsys):
        tree = "(repfn 1 (sub (exp (mul (const 2) (x 0))) (const 1)))"
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(MERTON_MODEL), "--xi-tree", tree,
        ])
        assert code == 0
        ref = dc.drift(dc.rep_exp_affine(2.0), parse_model(MERTON_MODEL)).total[0]
        assert dc.parse_complex(doc["total"][0]) == pytest.approx(ref, rel=1e-15)

    def test_cumulant_grid_zero_row(self, model_file, capsys):
        code = main([
            "cumulant", "--model", model_file(MERTON_MODEL),
            "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 3}}',
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "re_kappa" or out[0].startswith("re_v")
        first = out[1].split(",")
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0
        assert first[4] == "ok"

    def test_cumulant_pure_diffusion(self, model_file, capsys):
        doc = dict(GBM_MODEL, dim=1, b=[0.07], c=[[0.09]], truncation=["identity"])
        code = main([
            "cumulant", "--model", model_file(doc),
            "--v-grid", '{"re": {"start": 1, "stop": 1, "count": 1}}',
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        row = out[1].split(",")
        assert float(row[2]) == pytest.approx(0.07 + 0.045, rel=1e-14)

    def test_utility_command(self, model_file, capsys):
        atoms = {
            "type": "levy", "dim": 1, "b": [0.03], "c": [[0.0]],
            "truncation": ["identity"],
            "jumps": [{"kind": "atoms", "atoms": [
                {"x": [0.08], "intensity": 1.2}, {"x": [-0.06], "intensity": 1.0}]}],
        }
        code, doc = run_json(capsys, [
            "utility", "--model", model_file(atoms), "--bracket=-5,15",
        ])
        assert code == 0
        assert 3.0 < float(doc["lambda_star"]) < 3.5

    def test_memm_grid(self, model_file, capsys):
        code = main([
            "memm", "--model", model_file(MERTON_MODEL),
            "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 2}}',
            "--lambda-star", "0.7",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert float(out[1].split(",")[2]) == 0.0

    def test_price_margrabe(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "price-margrabe", "--model", model_file(MARGRABE_MODEL),
        ])
        assert code == 0
        assert float(doc["price"]) == pytest.approx(10.524315781125255, rel=1e-9)
        assert float(doc["kappa0"]) == 0.0
        assert list(doc) == ["price", "kappa0", "lambda2_Q1", "lambda1_Q2", "tail_mass", "terms"]
        assert (doc["terms"], doc["tail_mass"]) == (1, "0")

    def test_discrete_utility_factor(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "discrete", "--model", model_file(TRINOMIAL_MODEL), "--op", "stoch-exp",
            "--xi", "exp_utility", "--xi-params", '{"lambda": 1}', "-T", "1",
        ])
        assert code == 0
        expected = 0.3 * math.exp(-0.1) + 0.4 + 0.3 * math.exp(0.1)
        assert float(doc["value"]) == pytest.approx(expected, rel=1e-15)

    def test_discrete_q_stoch_exp(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "discrete", "--model", model_file(TRINOMIAL_MODEL), "--op", "q-stoch-exp",
            "--xi", "exp_affine", "--xi-params", '{"v": "1.3"}',
            "--eta", "exp_utility", "--eta-params", '{"lambda": 0}', "-T", "2",
        ])
        assert code == 0
        ref = dc.discrete_q_stoch_exp(
            dc.rep_exp_affine(1.3), dc.rep_exp_utility(0.0),
            parse_model(TRINOMIAL_MODEL), 2.0,
        )
        assert dc.parse_complex(doc["value"]) == pytest.approx(ref, rel=1e-14)

    def test_mc_verify_cumulant_z_score(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "mc-verify", "--model", model_file(MERTON_MODEL), "--target", "cumulant",
            "--v", "0.5", "-T", "1", "--n-paths", "50000", "--seed", "27",
        ])
        assert code == 0
        assert abs(float(doc["z_score"])) < 3.0
        assert doc["seed"] == 27

    def test_mc_verify_memm_z_score(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "mc-verify", "--model", model_file(MERTON_MODEL), "--target", "memm",
            "--lambda-star", "0.7", "--v", "0.5", "--n-paths", "50000", "--seed", "27",
        ])
        assert code == 0
        ref = np.exp(dc.memm_cumulant(dc.parse_complex("0.5"), 0.7, parse_model(MERTON_MODEL)))
        assert dc.parse_complex(doc["analytic"]) == ref
        assert abs(float(doc["z_score"])) < 4.0

    def test_mc_verify_memm_needs_lambda_star(self, model_file, capsys):
        code = main(["mc-verify", "--model", model_file(MERTON_MODEL), "--target", "memm"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--lambda-star is required" in captured.err

    def test_mc_verify_stoch_exp_on_a_levy_model(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "mc-verify", "--model", model_file(MERTON_MODEL), "--target", "stoch-exp",
            "--xi", "exp_affine", "--xi-params", '{"v": "0.5"}', "--n-paths", "20000", "--seed", "5",
        ])
        assert code == 0
        ref = dc.expectation_stoch_exp(dc.rep_exp_affine(0.5), parse_model(MERTON_MODEL), 1.0)
        assert dc.parse_complex(doc["analytic"]) == ref

    def test_discrete_compensator(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "discrete", "--model", model_file(TRINOMIAL_MODEL), "--op", "compensator",
            "--xi", "exp_affine", "--xi-params", '{"v": "0.5+1i"}', "-T", "3",
        ])
        assert code == 0
        ref = dc.discrete_compensator(dc.rep_exp_affine(0.5 + 1j), parse_model(TRINOMIAL_MODEL), 3.0)
        assert [dc.parse_complex(z) for z in doc["value"]] == list(ref)

    @pytest.mark.parametrize("v, pattern", [("0.5+1i", r"^-?[0-9.e-]+\+[0-9.e-]+i$"),
                                            ("0.5-1i", r"^-?[0-9.e-]+-[0-9.e-]+i$")])
    def test_a_non_real_drift_prints_a_plus_bi(self, model_file, capsys, v, pattern):
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(MERTON_MODEL), "--xi", "exp_affine", "--xi-params", json.dumps({"v": v}),
        ])
        assert code == 0
        assert re.match(pattern, doc["total"][0])
        ref = dc.drift(dc.rep_exp_affine(dc.parse_complex(v)), parse_model(MERTON_MODEL)).total[0]
        assert dc.parse_complex(doc["total"][0]) == ref

    @pytest.mark.parametrize("target", ["cumulant", "margrabe"])
    def test_mc_verify_output_independent_of_threads(self, model_file, capsys, target):
        if target == "margrabe":
            model = dict(MARGRABE_MODEL, jump={"lambda": 0.4, "mean": [-0.1, -0.05],
                                               "cov": [[0.0625, 0.02], [0.02, 0.0625]]},
                         defaults=[{"x": [0.0, -1.0], "intensity": 0.02}])
            args = ["--target", "margrabe"]
        else:
            model, args = MERTON_MODEL, ["--target", "cumulant", "--v", "0.5", "-T", "1"]
        outputs = []
        for threads in ("1", "2"):
            code = main(["mc-verify", "--model", model_file(model), *args,
                         "--n-paths", "20000", "--seed", "13", "--threads", threads])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_threads_variable_is_read_when_mc_verify_runs(self, model_file, capsys, monkeypatch):
        workers, original = [], cli.SimConfig

        def spy(**kwargs):
            workers.append(kwargs["workers"])
            return original(**kwargs)

        monkeypatch.setattr(cli, "SimConfig", spy)
        argv = ["mc-verify", "--model", model_file(MERTON_MODEL), "--target", "cumulant",
                "--v", "0.5", "--n-paths", "2000"]
        for threads in ("1", "2"):
            monkeypatch.setenv("DRIFTCALC_THREADS", threads)
            assert main(argv) == 0
        assert main([*argv, "--threads", "1"]) == 0
        assert workers == [1, 2, 1]

    def test_output_file(self, model_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "drift", "--model", model_file(GBM_MODEL), "--xi", "ratio",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert float(doc["total"][0]) == pytest.approx(0.034)

    def test_full_precision_output(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "drift", "--model", model_file(GBM_MODEL), "--xi", "ratio",
        ])
        # 17 significant digits survive a parse round trip exactly
        assert float(doc["total"][0]) == 0.05 - 0.02 - 0.006 + 0.01


class TestExitCodes:
    def test_unknown_catalog_name_is_usage_error(self, model_file, capsys):
        assert main(["drift", "--model", model_file(GBM_MODEL), "--xi", "nope"]) == 2

    @pytest.mark.parametrize("doc, token, message", [
        (dict(MERTON_MODEL, jumps=[dict(MERTON_MODEL["jumps"][0], **{"lambda": math.nan})]),
         '"lambda": NaN', "intensity must be finite"),
        (dict(MERTON_MODEL, c=[[math.inf]]), '"c": [[Infinity]]', "diffusion covariance must be finite"),
    ])
    def test_non_finite_model_parameter_is_usage_error(self, model_file, capsys, doc, token, message):
        assert token in json.dumps(doc)
        code = main(["drift", "--model", model_file(doc), "--xi", "exp_affine", "--xi-params", '{"v": "0.5"}'])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: malformed levy model: {message}\n"

    @pytest.mark.parametrize("doc, field", [
        (dict(MERTON_MODEL, c=[[-0.04]]), "diffusion covariance"),
        (dict(MERTON_MODEL, jumps=[dict(MERTON_MODEL["jumps"][0], cov=[[-0.04]])]), "jump covariance"),
    ])
    def test_covariance_that_is_not_psd_is_usage_error_naming_its_field(self, model_file, capsys, doc, field):
        code = main(["drift", "--model", model_file(doc), "--xi", "ratio"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: malformed levy model: {field} must be positive semidefinite\n"

    def test_missing_model_is_usage_error(self, capsys):
        assert main(["drift", "--model", "/does/not/exist.json", "--xi", "ratio"]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["drift", "--model", str(bad), "--xi", "ratio"]) == 2

    def test_wrong_model_kind_is_usage_error(self, model_file, capsys):
        assert main(["price-margrabe", "--model", model_file(GBM_MODEL)]) == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_non_positive_or_infinite_tol_is_usage_error(self, model_file, capsys, tol):
        code = main(["price-margrabe", "--model", model_file(MARGRABE_MODEL), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "rel_tol must be finite and positive" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("command", [
        ["drift", "--xi", "exp_affine", "--xi-params", '{"v": "0.5"}'],
        ["cumulant", "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 2}}'],
        ["memm", "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 2}}', "--lambda-star", "0.7"],
        ["utility", "--bracket=-1,8"],
        ["mc-verify", "--target", "cumulant", "--v", "0.5", "--n-paths", "100"],
    ], ids=lambda argv: argv[0])
    def test_bad_quadrature_tol_is_usage_error(self, model_file, capsys, command, tol):
        code = main([command[0], "--model", model_file(MERTON_MODEL), *command[1:], f"--tol={tol}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"rel_tol must be finite and positive, got {float(tol)}" in captured.err

    def test_non_integer_worker_count_is_usage_error(self, model_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_threads", lambda args: 2.5)
        code = main(["mc-verify", "--model", model_file(MERTON_MODEL), "--target", "cumulant",
                     "--n-paths", "100"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: workers must be an integer, got 2.5" in captured.err

    def test_a_worker_count_above_the_maximum_is_usage_error(self, model_file, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        code = main(["mc-verify", "--model", model_file(MERTON_MODEL), "--target", "cumulant",
                     "--n-paths", "100000000", "--threads", "100000"])
        captured = capsys.readouterr()
        assert (code, captured.out, started) == (2, "", [])
        assert "error: worker count must lie in [1, 64], got 100000" in captured.err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_a_seed_outside_64_bits_is_usage_error(self, model_file, capsys, seed):
        # masked into 64 bits, -1 printed the figures of 2**64 - 1 and 2**64 those of 0
        code = main(["mc-verify", "--model", model_file(MERTON_MODEL), "--target", "cumulant",
                     "--n-paths", "100", "--seed", seed])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: seed must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("option", [["--u-max", "50"], ["--beta=-0.3"]])
    def test_contour_options_are_gone(self, model_file, capsys, option):
        code = exit_code(["price-margrabe", "--model", model_file(MARGRABE_MODEL), *option])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"maturity": math.inf}, "maturity"),
            ({"jump": {"lambda": 0.4, "mean": [-0.1, -0.05, 0.3],
                       "cov": [[0.0625, 0.02], [0.02, 0.0625]]}}, "jump_mean"),
            # the mean jump factor e^{m_2 + S_22 / 2} overflows a float
            ({"jump": {"lambda": 0.4, "mean": [0.0, 800.0],
                       "cov": [[0.0625, 0.02], [0.02, 0.0625]]}}, "jump_mean"),
        ],
    )
    def test_unpriceable_margrabe_model_is_usage_error(self, model_file, capsys, change, field):
        code = main(["price-margrabe", "--model", model_file(dict(MARGRABE_MODEL, **change))])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_deeply_nested_tree_is_usage_error(self, model_file, capsys):
        tree = "(repfn 2 " + "(neg " * 1100 + "(x 0)" + ")" * 1101
        assert main(["drift", "--model", model_file(GBM_MODEL), "--xi-tree", tree]) == 2
        assert "nests deeper than 256 levels" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["utility", "memm"])
    @pytest.mark.parametrize("bracket", ["1", "0,8,9", "0,inf", "8,0"])
    def test_bad_bracket_is_usage_error(self, model_file, capsys, command, bracket):
        argv = [command, "--model", model_file(MERTON_MODEL), f"--bracket={bracket}"]
        if command == "memm":
            argv += ["--v-grid", '{"re": 1}']
        assert main(argv) == 2
        assert "--bracket needs two finite numbers" in capsys.readouterr().err

    def test_utility_on_a_two_dimensional_model_is_usage_error(self, model_file, capsys, monkeypatch):
        drifts = []
        monkeypatch.setattr(pricing, "drift", lambda *a, **k: drifts.append(a))
        assert main(["utility", "--model", model_file(DOC_LEVY_MODEL), "--bracket=0,8"]) == 2
        assert "utility drift requires a one-dimensional model" in capsys.readouterr().err
        assert drifts == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["utility", "--bracket=-5,15"],
            ["memm", "--v-grid", '{"re": 1}'],  # the default bracket -1,8
        ],
    )
    def test_bracket_below_zero_on_gaussian_body_is_exit_one(self, model_file, capsys, argv):
        # e^{-lam(e^x - 1)} is not integrable against a Gaussian body for
        # lam < 0; perfbench/check.py counts exactly this outcome as the
        # known defect "nonintegrable-bracket".
        code = main([argv[0], "--model", model_file(MERTON_MODEL), *argv[1:]])
        assert code == 1
        assert "jump integral did not converge" in capsys.readouterr().err

    def test_malformed_threads_variable_fails_only_mc_verify(self, model_file, capsys, monkeypatch):
        monkeypatch.setenv("DRIFTCALC_THREADS", "two")
        path = model_file(MERTON_MODEL)
        assert main(["roundtrip", "--model", path]) == 0
        capsys.readouterr()
        code = main(["mc-verify", "--model", path, "--target", "cumulant", "--n-paths", "2000"])
        assert code == 2
        assert "DRIFTCALC_THREADS" in capsys.readouterr().err

    def test_computation_diagnostic_is_exit_one(self, model_file, capsys):
        atoms = {
            "type": "levy", "dim": 1, "b": [0.0], "c": [[0.0]],
            "truncation": ["identity"],
            "jumps": [{"kind": "atoms", "atoms": [{"x": [-1.0], "intensity": 0.5}]}],
        }
        # log(1+x) is undefined at the default atom
        code = main([
            "drift", "--model", model_file(atoms), "--xi", "log_return",
        ])
        assert code == 1

    def test_discontinuous_integrand_diagnostic_names_the_cause(self, model_file, capsys):
        # The indicator level sits inside the lognormal body's support: the
        # integral exists, but the Gauss-Hermite ladder cannot resolve the step.
        tree = "(repfn 1 (mul (x 0) (ind abs_le 0.5 (add (x 0) (const 1)))))"
        code = main(["drift", "--model", model_file(MERTON_MODEL), "--xi-tree", tree])
        err = capsys.readouterr().err
        assert code == 1
        assert "jump integral did not converge" in err
        assert "discontinuous inside the law's support" in err

    def test_divergent_grid_rows_are_flagged_and_run_continues(self, model_file, capsys):
        # Large real v makes the exponential moment non-integrable against
        # the lognormal jump body: those rows are flagged, the rest computed.
        code = main([
            "cumulant", "--model", model_file(MERTON_MODEL),
            "--v-grid", '{"re": {"start": 0, "stop": 10, "count": 3}}',
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        statuses = [line.split(",")[4] for line in out[1:]]
        assert statuses[0] == "ok"
        assert any(s.startswith("error:") for s in statuses)

    def test_finite_jet_of_a_huge_constant_is_computed(self, model_file, capsys):
        tree = "(repfn 1 (mul (x 0) (log (add (const 1e200) (x 0)))))"
        assert main(["drift", "--model", model_file(MERTON_MODEL), "--xi-tree", tree]) == 0
        assert capsys.readouterr().err == ""

    def test_overflow_at_an_atom_prints_no_numpy_warning(self, model_file, capsys):
        # (-1 + 0.5i)^1e200 overflows at the default atom; the atom sum then
        # multiplies inf by a zero imaginary part, which is a diagnostic, not
        # a NaN drift
        tree = "(repfn 1 (pow 1e200 (add (x 0) (const 0.5i))))"
        assert main(["drift", "--model", model_file(ATOMS_MODEL), "--xi-tree", tree]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed: integrand overflows at atom [-1.0]")
        assert len(captured.err.splitlines()) == 1

    def test_non_finite_jet_part_is_exit_one_naming_the_part(self, model_file, capsys):
        # Without the default atom the atom sum is finite, but the second
        # derivative 1e200 (1e200 - 1) (0.5i)^(1e200 - 2) overflows to NaN.
        doc = dict(ATOMS_MODEL, jumps=[{"kind": "atoms", "atoms": [{"x": [0.08], "intensity": 1.2}]}])
        tree = "(repfn 1 (pow 1e200 (add (x 0) (const 0.5i))))"
        assert main(["drift", "--model", model_file(doc), "--xi-tree", tree]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed: quadratic part of the drift is not finite")
        assert len(captured.err.splitlines()) == 1

    def test_a_closed_output_pipe_is_exit_one_without_a_traceback(self, model_file):
        # 4 000 rows, about 320 KB: more than a pipe buffer holds, so the
        # write itself meets the closed pipe
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "driftcalc.cli", "cumulant", "--model", model_file(MERTON_MODEL),
                "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 4000}}']
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"re_v,im_v,re_kappa,im_kappa,status\n"
        proc.stdout.close()
        with proc.stderr:
            stderr = proc.stderr.read()
        assert (proc.wait(timeout=120), stderr) == (1, b"")

    @pytest.mark.parametrize("command, argv, function, error, detail", [
        ("drift", ["--xi", "log_return"], "drift",
         MemoryError("Unable to allocate 9.5 GiB for an array with shape (170000000, 7) and data type float64"),
         " (Unable to allocate 9.5 GiB for an array with shape (170000000, 7) and data type float64)"),
        ("utility", ["--bracket=0,8"], "optimize_exp_utility", MemoryError(), ""),
    ])
    def test_out_of_memory_is_exit_one_naming_the_command(self, model_file, capsys, monkeypatch,
                                                          command, argv, function, error, detail):
        # the command's computation raises as numpy does when an array
        # cannot be allocated; nothing large is allocated here
        def out_of_memory(*args):
            raise error

        monkeypatch.setattr(cli, function, out_of_memory)
        assert main([command, "--model", model_file(MERTON_MODEL), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"computation failed: out of memory in the {command} command{detail}\n"

    def test_misspelt_grid_axis_is_exit_two(self, model_file, capsys):
        code = main(["cumulant", "--model", model_file(MERTON_MODEL),
                     "--v-grid", '{"Re": {"start": 0, "stop": 2, "count": 3}}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: grid has unknown key 'Re'")

    def test_defaults_only_price_converges_at_tight_tolerance(self, model_file, capsys):
        # the margrabe example of docs/model-schema.md without diffusion or
        # jump body: the default mass and one Black put are the whole price
        for spot2 in (100.0, 80.0):
            doc = {"type": "margrabe", "spot1": 100.0, "spot2": spot2, "maturity": 1.0,
                   "diffusion": {"sigma1_sq": 0.0, "sigma12": 0.0, "sigma2_sq": 0.0},
                   "defaults": [{"x": [0.0, -1.0], "intensity": 0.02}]}
            code, out = run_json(capsys, ["price-margrabe", "--model", model_file(doc), "--tol", "1e-12"])
            assert code == 0
            expected = 100.0 * -math.expm1(-0.02) + math.exp(-0.02) * max(
                0.0, 100.0 - spot2 * math.exp(0.02))
            assert abs(float(out["price"]) - expected) <= 1e-14 * 100.0
            assert (out["terms"], out["tail_mass"]) == (1, "0")

    def test_flat_envelope_price_converges_at_tight_tolerance(self, model_file, capsys):
        # the margrabe example of docs/model-schema.md with fixed jump sizes
        # and no diffusion: the price is a Poisson sum of intrinsic values
        doc = {"type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 1.0,
               "diffusion": {"sigma1_sq": 0.0, "sigma12": 0.0, "sigma2_sq": 0.0},
               "jump": {"lambda": 0.4, "mean": [-0.1, -0.05]},
               "defaults": [{"x": [0.0, -1.0], "intensity": 0.02}]}
        code, out = run_json(capsys, ["price-margrabe", "--model", model_file(doc), "--tol", "1e-12"])
        assert code == 0
        assert out["terms"] == 14 and 0.0 < float(out["tail_mass"]) <= 1e-16
        price, _ = dc.margrabe_price(parse_model(doc))
        assert float(out["price"]) == price

    def test_large_jump_mass_prints_a_finite_price(self, model_file, capsys):
        # the docs example at T = 5 and lambda = 200 (lambda T = 1 000), with
        # fixed jump sizes and only the first asset diffusing: z0 = 882
        # overflowed e^{z0} on the contour, and the price came out NaN
        path = model_file({
            "type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 5.0,
            "diffusion": {"sigma1_sq": 0.04, "sigma12": 0.0, "sigma2_sq": 0.0},
            "jump": {"lambda": 200.0, "mean": [-0.1, -0.05], "cov": [[0.0, 0.0], [0.0, 0.0]]},
            "defaults": [{"x": [0.0, -1.0], "intensity": 0.02}],
        })
        code = main(["price-margrabe", "--model", path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        out = json.loads(captured.out)
        assert math.isfinite(float(out["price"])) and out["terms"] == 526
        # log S1_T has a standard deviation near 3.2 here, so the oracle warns
        # that its standard error may be optimistic; |z| <= 4 is a weak check
        with pytest.warns(UserWarning, match="heavy-tailed"):
            code, out = run_json(capsys, ["mc-verify", "--target", "margrabe", "--model", path,
                                          "--n-paths", "2000", "--seed", "5"])
        assert code == 0
        assert float(out["analytic"]) == float(json.loads(captured.out)["price"])
        assert abs(float(out["z_score"])) <= 4.0

    def test_non_integrable_memm_rows_print_no_numpy_warning(self, model_file, capsys):
        code = main([
            "memm", "--model", model_file(DOC_MARGINAL_MODEL), "--lambda-star", "0.7",
            "--v-grid", '{"re": {"start": -4, "stop": 30, "count": 18}}',
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert any(line.endswith(",ok") for line in captured.out.splitlines())
        assert any(",error: " in line for line in captured.out.splitlines())
        assert captured.err == ""

    def test_grid_json_format(self, model_file, capsys):
        code = main([
            "cumulant", "--model", model_file(MERTON_MODEL),
            "--v-grid", '{"re": {"start": 0, "stop": 1, "count": 2}}',
            "--format", "json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out[0]["status"] == "ok"
        assert dc.parse_complex(out[0]["kappa"]) == 0.0


def exit_code(argv) -> int:
    """main's exit code, argparse's usage exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "1e309"])
@pytest.mark.parametrize("command", ["memm", "mc-verify"])
def test_lambda_star_must_be_finite(model_file, capsys, command, lam):
    argv = [command, "--model", model_file(MERTON_MODEL), f"--lambda-star={lam}"]
    argv += (["--v-grid", '{"re": 0.5}'] if command == "memm"
             else ["--target", "memm", "--n-paths", "100"])
    code = exit_code(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument --lambda-star: needs a finite number, got '{lam}'" in captured.err
    assert "Traceback" not in captured.err


class TestDiscreteInputs:
    """Bad horizons, options and support points end in exit 2 (or 1 for an
    overflow) with a one-line diagnostic, never a traceback."""

    def discrete(self, path, *extra):
        return ["discrete", "--model", path, "--op", "stoch-exp", "--xi", "exp_affine",
                "--xi-params", '{"v": "2"}', *extra]

    @pytest.mark.parametrize("T", ["inf", "-2", "nan", "1e400", "abc"])
    @pytest.mark.parametrize("command", ["discrete", "mc-verify"])
    def test_horizon_must_be_finite_and_nonnegative(self, model_file, capsys, command, T):
        path = model_file(TRINOMIAL_MODEL)
        if command == "discrete":
            argv = self.discrete(path, f"-T={T}")
        else:
            argv = ["mc-verify", "--model", path, "--target", "stoch-exp", "--xi", "exp_affine",
                    "--n-paths", "100", f"-T={T}"]
        code = exit_code(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument -T: needs a finite number >= 0, got '{T}'" in captured.err
        assert "Traceback" not in captured.err

    def test_overflowing_product_is_exit_one(self, model_file, capsys):
        code = exit_code(self.discrete(model_file(TRINOMIAL_MODEL), "-T", "1e300"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "computation failed: the result overflows: floor(T) = 1e+300 periods")
        assert "Traceback" not in captured.err

    def test_mc_verify_on_a_discrete_model_keeps_its_horizon(self, model_file, capsys):
        code, doc = run_json(capsys, [
            "mc-verify", "--model", model_file(TRINOMIAL_MODEL), "--target", "stoch-exp",
            "--xi", "exp_affine", "--xi-params", '{"v": "0.5"}', "-T", "3",
            "--n-paths", "2000", "--seed", "3",
        ])
        assert code == 0
        ref = dc.discrete_stoch_exp(dc.rep_exp_affine(0.5), parse_model(TRINOMIAL_MODEL), 3.0)
        assert dc.parse_complex(doc["analytic"]) == ref
        assert abs(float(doc["z_score"])) < 4.0

    @pytest.mark.parametrize("command", ["discrete", "mc-verify"])
    def test_a_representation_of_another_dimension_is_exit_two(self, model_file, capsys, command):
        # the parent failed in the tree walk: "expected a batch of shape (N, 1), got (2, 2)"
        path = model_file({"type": "discrete", "support": [{"x": [0.1, 0.0], "p": 0.5},
                                                           {"x": [-0.1, 0.05], "p": 0.5}]})
        if command == "discrete":
            argv = self.discrete(path, "-T", "2")
        else:
            argv = ["mc-verify", "--model", path, "--target", "stoch-exp", "--xi", "exp_affine",
                    "--xi-params", '{"v": "2"}', "--n-paths", "100", "-T", "2"]
        code = exit_code(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: representation expects dimension 1, triplet has 2\n"

    def test_mc_verify_stoch_exp_names_both_model_kinds(self, model_file, capsys):
        code = exit_code(["mc-verify", "--model", model_file(MARGRABE_MODEL), "--target", "stoch-exp",
                          "--xi", "exp_affine", "--n-paths", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: this command needs a levy or discrete model file\n"

    @pytest.mark.parametrize("target", ["cumulant", "stoch-exp"])
    def test_mc_verify_whose_analytic_value_overflows_is_exit_one(self, model_file, capsys, monkeypatch, target):
        # E[e^{30 X_5}] = exp(5 (e^6 - 1)) on an atom at 0.2 overflows; the
        # parent printed "analytic": "inf" and "z_score": "inf" and exited 0
        path = model_file({"type": "levy", "dim": 1, "b": [0.0], "c": [[0.0]], "truncation": ["zero"],
                           "jumps": [{"kind": "atoms", "atoms": [{"x": [0.2], "intensity": 1.0}]}]})
        xi = ["--v", "30"] if target == "cumulant" else ["--xi", "exp_affine", "--xi-params", '{"v": 30}']
        monkeypatch.setattr(cli, "mc_stoch_exp", None)  # no path is simulated
        code = exit_code(["mc-verify", "--model", path, "--target", target, *xi, "-T", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("computation failed: the result overflows: "
                                "T = 5 at a drift of (402.4287934927351+0j)\n")

    @pytest.mark.parametrize("command", ["discrete", "roundtrip"])
    def test_tol_is_not_an_option(self, model_file, capsys, command):
        path = model_file(TRINOMIAL_MODEL)
        if command == "discrete":
            argv = self.discrete(path, "-T", "1")
        else:
            argv = ["roundtrip", "--model", path]
        assert exit_code(argv) == 0
        capsys.readouterr()
        assert exit_code([*argv, "--tol", "1e-8"]) == 2
        assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err

    def test_non_finite_support_point_is_exit_two(self, model_file, capsys):
        # the same atom is refused in a levy file and a discrete one
        discrete = {"type": "discrete",
                    "support": [{"x": [math.inf], "p": 0.5}, {"x": [0.0], "p": 0.5}]}
        levy = dict(ATOMS_MODEL, jumps=[{"kind": "atoms", "atoms": [
            {"x": [math.inf], "intensity": 0.5}, {"x": [0.0], "intensity": 0.5}]}])
        assert "Infinity" in json.dumps(discrete)
        messages = []
        drift = ["drift", "--model", model_file(levy, "levy.json"), "--xi", "exp_affine",
                 "--xi-params", '{"v": "2"}']
        for argv in (self.discrete(model_file(discrete, "discrete.json"), "-T", "2"), drift):
            code = exit_code(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            messages.append(captured.err)
        assert messages == [f"error: malformed {kind} model: atom positions and intensities must be finite\n"
                            for kind in ("discrete", "levy")]


#: the exchange model of docs/model-schema.md
DOC_MARGRABE_MODEL = {
    "type": "margrabe", "spot1": 100.0, "spot2": 100.0, "maturity": 1.0,
    "diffusion": {"sigma1_sq": 0.04, "sigma12": 0.006, "sigma2_sq": 0.01},
    "jump": {"lambda": 0.4, "mean": [-0.1, -0.05], "cov": [[0.0625, 0.02], [0.02, 0.0625]]},
    "defaults": [{"x": [0.0, -1.0], "intensity": 0.02}],
}


def _edit(doc, path, value=None, rename=None):
    """A deep copy of doc whose entry at ``path`` (keys and indices) is set to
    ``value``, or renamed to ``rename``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if rename is None:
        node[last] = value
    else:
        node[rename] = node.pop(last)
    return doc


def _schema_argv(doc, path):
    """A command that loads the model file at ``path``, for doc's type."""
    if doc["type"] == "levy":
        return ["cumulant", "--model", path, "--v-grid", '{"re": 0.5}']
    if doc["type"] == "discrete":
        return ["discrete", "--model", path, "--op", "compensator", "--xi", "identity",
                "--xi-params", '{"dim": 1}', "-T", "2"]
    return ["price-margrabe", "--model", path]


class TestModelSchema:
    """Every level of a model file refuses a key outside the schema, and every
    number field refuses a boolean or a string, with exit 2 naming the field."""

    def run(self, model_file, capsys, doc):
        code = exit_code(_schema_argv(doc, model_file(doc)))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("doc, path, rename, where, allowed", [
        # "jump" for "jumps" loaded with no jump measure: kappa(0.5) read 0.030000000000000002
        (MERTON_MODEL, ["jumps"], "jump", "levy model", "'type', 'dim', 'b', 'c', 'truncation', 'jumps'"),
        (MERTON_MODEL, ["jumps", 0, "cov"], "sd", "jumps[0]", "'kind', 'lambda', 'mean', 'cov'"),
        (MERTON_MODEL, ["jumps", 1, "atoms"], "points", "jumps[1]", "'kind', 'atoms'"),
        (MERTON_MODEL, ["jumps", 1, "atoms", 0, "intensity"], "lambda", "jumps[1] atoms[0]", "'x', 'intensity'"),
        (TRINOMIAL_MODEL, ["support"], "atoms", "discrete model", "'type', 'support'"),
        (TRINOMIAL_MODEL, ["support", 2, "p"], "prob", "support[2]", "'x', 'p'"),
        # "jumps" for "jump" priced without the jump body: 7.7645209585126276, not 10.04098474298104
        (DOC_MARGRABE_MODEL, ["jump"], "jumps", "margrabe model",
         "'type', 'spot1', 'spot2', 'maturity', 'diffusion', 'jump', 'defaults'"),
        (DOC_MARGRABE_MODEL, ["diffusion", "sigma12"], "sigma_12", "diffusion", "'sigma1_sq', 'sigma12', 'sigma2_sq'"),
        (DOC_MARGRABE_MODEL, ["jump", "mean"], "means", "jump", "'lambda', 'mean', 'cov'"),
        (DOC_MARGRABE_MODEL, ["defaults", 0, "intensity"], "lambda", "defaults[0]", "'x', 'intensity'"),
    ])
    def test_an_unknown_key_is_refused_at_every_level(self, model_file, capsys, doc, path, rename, where, allowed):
        assert self.run(model_file, capsys, doc)[0] == 0
        bad = _edit(doc, path, rename=rename)
        assert self.run(model_file, capsys, bad) == (
            2, "", f"error: {where} has unknown key {rename!r}; allowed keys are {allowed}\n")

    @pytest.mark.parametrize("dim", [1.7, 1.0, True, 0, -1, "1", None])
    def test_dim_must_be_an_integer_of_at_least_one(self, model_file, capsys, dim):
        bad = _edit(MERTON_MODEL, ["dim"], dim)
        assert self.run(model_file, capsys, bad) == (
            2, "", f"error: levy model 'dim' must be an integer >= 1, got {dim!r}\n")

    @pytest.mark.parametrize("doc, path, value, where", [
        (MERTON_MODEL, ["b"], [True], "levy model 'b'"),
        (MERTON_MODEL, ["c"], [["0.04"]], "levy model 'c'"),
        (MERTON_MODEL, ["jumps", 0, "lambda"], "0.8", "jumps[0] 'lambda'"),
        (MERTON_MODEL, ["jumps", 0, "mean"], [False], "jumps[0] 'mean'"),
        (MERTON_MODEL, ["jumps", 0, "cov"], "[[0.04]]", "jumps[0] 'cov'"),
        (MERTON_MODEL, ["jumps", 1, "atoms", 0, "x"], ["0.25"], "jumps[1] atoms[0] 'x'"),
        (MERTON_MODEL, ["jumps", 1, "atoms", 0, "intensity"], True, "jumps[1] atoms[0] 'intensity'"),
        (TRINOMIAL_MODEL, ["support", 1, "x"], [True], "support[1] 'x'"),
        (TRINOMIAL_MODEL, ["support", 1, "p"], "0.4", "support[1] 'p'"),
        (DOC_MARGRABE_MODEL, ["spot1"], "100", "margrabe model 'spot1'"),
        (DOC_MARGRABE_MODEL, ["maturity"], True, "margrabe model 'maturity'"),
        (DOC_MARGRABE_MODEL, ["diffusion", "sigma12"], "0.006", "diffusion 'sigma12'"),
        (DOC_MARGRABE_MODEL, ["jump", "lambda"], "0.4", "jump 'lambda'"),
        (DOC_MARGRABE_MODEL, ["jump", "cov"], [[0.0625, True], [0.02, 0.0625]], "jump 'cov'"),
        (DOC_MARGRABE_MODEL, ["defaults", 0, "x"], ["0", -1.0], "defaults[0] 'x'"),
        (DOC_MARGRABE_MODEL, ["defaults", 0, "intensity"], False, "defaults[0] 'intensity'"),
    ])
    def test_a_boolean_or_a_string_is_not_a_number(self, model_file, capsys, doc, path, value, where):
        # each was read as its number before: "0.8" as 0.8, true as 1.0
        bad = _edit(doc, path, value)
        assert self.run(model_file, capsys, bad) == (
            2, "", f"error: {where} must be a number or a list of numbers, got {value!r}\n")


def csv_rows(text):
    """(v, value, status) of each row of a grid command's CSV output."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        re_v, im_v, re_k, im_k, status = line.split(",", 4)
        rows.append((complex(float(re_v), float(im_v)), complex(float(re_k), float(im_k)), status))
    return rows


def per_point_rows(fn, grid):
    """The rows of one scalar call per point, status text as the CLI writes it."""
    rows = []
    for v in grid:
        try:
            rows.append((v, fn(v), "ok"))
        except EngineError as exc:
            message = str(exc).replace(",", ";").replace("\n", " ")
            rows.append((v, complex("nan+nanj"), f"error: {message}"))
    return rows


def grid_call(command, doc):
    """The scalar library call behind one CLI grid command."""
    model = parse_model(doc)
    if command == "cumulant":
        return lambda v: dc.cumulant(v, model)
    return lambda v: dc.memm_cumulant(v, 0.7, model)


def run_grid(model_file, capsys, command, doc, grid):
    argv = [command, "--model", model_file(doc), "--v-grid", json.dumps(grid)]
    if command == "memm":
        argv += ["--lambda-star", "0.7"]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, csv_rows(captured.out)


def assert_rows_are_their_points(code, rows, ref):
    """Each grid row has the status of its one-point call, and its value
    within 1e-15 (1 + |kappa|); the exit code is 1 if any row failed."""
    assert [r[2] for r in rows] == [r[2] for r in ref]
    assert code == (0 if all(r[2] == "ok" for r in ref) else 1)
    for (v, k, status), (v_ref, k_ref, _) in zip(rows, ref):
        assert v == v_ref
        if status == "ok":
            assert abs(k - k_ref) <= 1e-15 * (1.0 + abs(k_ref))
        else:
            assert np.isnan(k.real) and np.isnan(k.imag)


def spy_outputs(monkeypatch, name):
    """Output count of the tree of each call of ``pricing.<name>`` from now on."""
    calls, original = [], getattr(pricing, name)

    def counted(xi, *args, **kwargs):
        calls.append(xi.output_dim)
        return original(xi, *args, **kwargs)

    monkeypatch.setattr(pricing, name, counted)
    return calls


class TestBatchedGrids:
    @pytest.fixture
    def grid_models(self, merton_1d, atoms_1d):
        return {"merton": serialize_model(merton_1d), "atoms": serialize_model(atoms_1d),
                "sum": MERTON_MODEL, "docs": DOC_MARGINAL_MODEL}

    @pytest.mark.parametrize("command", ["cumulant", "memm"])
    @pytest.mark.parametrize("grid", [
        {"re": {"start": -1, "stop": 2, "count": 31}},
        {"re": 0.5, "im": {"start": -5, "stop": 5, "count": 11}},
        # three chunks: 128, 128 and 4 points
        {"re": {"start": -0.5, "stop": 1.5, "count": 2}, "im": {"start": -3, "stop": 3, "count": 130}},
    ], ids=["real", "complex", "three_chunks"])
    @pytest.mark.parametrize("name", ["merton", "atoms", "sum", "docs"])
    def test_batched_grid_matches_per_point_calls(self, grid_models, model_file, capsys,
                                                   command, grid, name):
        code, rows = run_grid(model_file, capsys, command, grid_models[name], grid)
        ref = per_point_rows(grid_call(command, grid_models[name]), parse_grid(grid))
        assert_rows_are_their_points(code, rows, ref)

    @pytest.mark.parametrize("command, doc, grid", [
        ("cumulant", MERTON_MODEL, {"re": {"start": 0, "stop": 10, "count": 3}}),
        ("memm", DOC_MARGINAL_MODEL, {"re": {"start": -4, "stop": 30, "count": 18}}),
    ], ids=["divergent_cumulant", "non_integrable_memm"])
    def test_failing_grid_rows_carry_the_per_point_messages(self, model_file, capsys, command, doc, grid):
        code, rows = run_grid(model_file, capsys, command, doc, grid)
        ref = per_point_rows(grid_call(command, doc), parse_grid(grid))
        assert code == 1
        assert any(r[2].startswith("error: ") for r in rows)
        assert_rows_are_their_points(code, rows, ref)

    @pytest.mark.parametrize("command, stop, failed", [
        ("memm", 3, 0), ("memm", 30, 99), ("cumulant", 30, 109), ("cumulant", 3, 36),
    ])
    def test_docs_marginal_grids_are_their_one_point_calls(self, model_file, capsys, command, stop, failed):
        grid = {"re": {"start": -4, "stop": stop, "count": 128}}
        code, rows = run_grid(model_file, capsys, command, DOC_MARGINAL_MODEL, grid)
        ref = per_point_rows(grid_call(command, DOC_MARGINAL_MODEL), parse_grid(grid))
        assert [r[2] for r in rows].count("ok") == 128 - failed
        assert_rows_are_their_points(code, rows, ref)

    @pytest.mark.parametrize("command, spied", [("cumulant", "drift"), ("memm", "drift_q")])
    @pytest.mark.parametrize("count, outputs", [(101, [101]), (300, [128, 128, 44])])
    def test_a_grid_is_one_drift_per_chunk(self, model_file, capsys, monkeypatch,
                                           command, spied, count, outputs):
        calls = spy_outputs(monkeypatch, spied)
        code, rows = run_grid(model_file, capsys, command, MERTON_MODEL,
                              {"re": {"start": 0, "stop": 2, "count": count}})
        assert code == 0 and len(rows) == count
        assert calls == outputs

    def test_a_failing_row_reruns_only_its_chunk(self, monkeypatch):
        model = parse_model(MERTON_MODEL)
        grid = np.linspace(0.0, 1.0, 300) + 0j
        grid[150] = 10.0  # not integrable against the jump body
        calls = spy_outputs(monkeypatch, "drift")
        rows, failures = cli._grid_rows(grid, lambda v: dc.cumulant(v, model))
        # one drift names the failing row, one more values the other 127
        assert calls == [128, 128, 127, 44]
        assert failures == 1
        assert [status for _, _, status in rows].count("ok") == 299
        with pytest.raises(EngineError) as info:
            dc.cumulant(10.0, model)
        message = str(info.value).replace(",", ";")
        assert rows[150][2] == f"error: {message}"

    def test_a_row_whose_drift_sum_overflows_takes_a_third_drift(self, monkeypatch):
        # Against an atom at -0.5, v = -2000 overflows in the atom sum.  The
        # integral at v = 1e160 is finite, but v^2 c overflows in the drift's
        # sum, which is checked only once the integral of every row settled.
        t = dc.LevyTriplet(1, np.array([0.05]), np.array([[0.04]]), dc.FiniteAtoms([[-0.5]], [0.3]),
                           dc.TruncationSpec.identity(1))
        grid = np.array([-2000.0, 0.5, 1e160]) + 0j
        calls = spy_outputs(monkeypatch, "drift")
        rows, failures = cli._grid_rows(grid, lambda v: dc.cumulant(v, t))
        assert calls == [3, 2, 1]
        assert failures == 2
        assert_rows_are_their_points(1, rows, per_point_rows(lambda v: dc.cumulant(v, t), grid))


ATOMS_MODEL = {
    "type": "levy", "dim": 1, "b": [0.03], "c": [[0.0]], "truncation": ["identity"],
    "jumps": [
        {"kind": "atoms", "atoms": [{"x": [0.08], "intensity": 1.2}, {"x": [-1.0], "intensity": 1.0}]},
    ],
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_drift_of_any_tree_ends_in_a_documented_exit_code(tmp_path_factory, data):
    # Exit codes 0, 1 and 2 are the contract in the cli docstring; no
    # tree may end in a traceback instead.
    path = tmp_path_factory.getbasetemp() / "atoms_model.json"
    path.write_text(json.dumps(ATOMS_MODEL))
    dim = data.draw(st.integers(1, 2))
    roots = data.draw(st.lists(raw_trees(dim), min_size=1, max_size=2))
    code = main(["drift", "--model", str(path), "--xi-tree", raw_prefix(dim, roots)])
    assert code in (0, 1, 2)
