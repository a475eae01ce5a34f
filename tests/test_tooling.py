"""Names other code binds: the benchmark's tracer binds glpot functions by name, and ``glpot.__all__``
lists the package's exports; every such name must exist."""

import importlib
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root, home of perfbench

from perfbench.tracer import EVALUATOR_METHODS, SPAN_FUNCTIONS, Tracer  # noqa: E402

import glpot  # noqa: E402
from glpot import KernelSpec, PotentialNormEvaluator, TestFunction, quadrature  # noqa: E402


def test_all_lists_exactly_the_public_names():
    # every name in __all__ exists, and every public name __init__ binds, modules aside, is in __all__
    public = {name for name, value in vars(glpot).items() if not name.startswith("_")}
    assert [name for name in glpot.__all__ if name not in public] == []
    unlisted = public - set(glpot.__all__)
    assert sorted(name for name in unlisted if not isinstance(getattr(glpot, name), types.ModuleType)) == []


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in SPAN_FUNCTIONS.items() for name in names]
)
def test_span_functions_exist(module, name):
    assert callable(getattr(importlib.import_module(f"glpot.{module}"), name))


@pytest.mark.parametrize("method", EVALUATOR_METHODS)
def test_evaluator_methods_exist(method):
    assert callable(getattr(PotentialNormEvaluator, method))


def test_other_bound_names_exist():
    # Tracer.install also wraps QUADPACK and density calls, and reads the evaluator's grid ratio
    assert callable(quadrature._quad)
    assert callable(TestFunction.__call__)
    assert PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5)).ratio > 1.0


def test_tracer_counts_the_table_calls_of_a_potential_norm():
    # grand.table_points counts the scaled calls made inside an evaluator's norm
    ev = PotentialNormEvaluator(TestFunction.g_delta(0.0), KernelSpec.riesz(0.5))
    tracer = Tracer()
    tracer.install()
    try:
        ev.log_qnorm(3.0)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["grand.table_points"] > 0
