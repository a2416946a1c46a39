"""The benchmark's tracer patches package names by string; keep them alive.

``perfbench/tracer.py`` looks each name up with ``getattr`` and its count
hooks read arguments by position, so a rename or a reordered signature
would silently drop a layer from the trace.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from driftcalc.repfn import RepFn

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _params(module, name):
    fn = getattr(importlib.import_module(f"driftcalc.{module}"), name)
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("module, name", TRACER.FUNCTIONS)
def test_function_targets_exist(module, name):
    assert hasattr(importlib.import_module(f"driftcalc.{module}"), name)


@pytest.mark.parametrize("cls, method, span", TRACER.METHODS)
def test_method_targets_exist(cls, method, span):
    assert cls == "RepFn"
    assert method in RepFn.__dict__


@pytest.mark.parametrize(
    "module, name, leading",
    [
        ("models", "integrate", ["measure", "g"]),
        ("pricing", "minimize_scalar", ["fn", "bracket"]),
        ("pricing", "margrabe_kappa", ["v"]),
    ],
)
def test_hooked_functions_keep_leading_arguments(module, name, leading):
    assert _params(module, name)[: len(leading)] == leading


def test_eval_batch_takes_a_point_array():
    assert list(inspect.signature(RepFn.eval_batch).parameters) == ["self", "X"]


@pytest.mark.parametrize("name", [n for m, n in TRACER.FUNCTIONS if n.startswith("mc_")])
def test_monte_carlo_config_is_the_last_argument(name):
    assert _params("mcoracle", name)[-1] == "cfg"
