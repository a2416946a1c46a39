import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftcalc as dc
from driftcalc import cli
from driftcalc.cli import build_parser, main
from driftcalc.modelio import (
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

    def test_missing_model_is_usage_error(self, capsys):
        assert main(["drift", "--model", "/does/not/exist.json", "--xi", "ratio"]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["drift", "--model", str(bad), "--xi", "ratio"]) == 2

    def test_wrong_model_kind_is_usage_error(self, model_file, capsys):
        assert main(["price-margrabe", "--model", model_file(GBM_MODEL)]) == 2

    def test_infinite_contour_length_is_usage_error(self, model_file, capsys):
        code = main(["price-margrabe", "--model", model_file(MARGRABE_MODEL), "--u-max", "inf"])
        assert code == 2
        assert "u_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"maturity": math.inf}, "maturity"),
            ({"jump": {"lambda": 0.4, "mean": [-0.1, -0.05, 0.3],
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

    def test_non_integrable_memm_rows_print_no_numpy_warning(self, model_file, capsys):
        # the one-dimensional marginal of the levy example in docs/model-schema.md
        marginal = {
            "type": "levy", "dim": 1, "b": [0.05], "c": [[0.04]], "truncation": ["unit_clip"],
            "jumps": [
                {"kind": "atoms", "atoms": [{"x": [0.1], "intensity": 0.25}]},
                {"kind": "gaussian_push", "lambda": 0.4, "mean": [-0.1], "cov": [[0.0625]]},
            ],
        }
        code = main([
            "memm", "--model", model_file(marginal), "--lambda-star", "0.7",
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
