"""Self-tests of the benchmark, at a tiny size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run

tracer_mod, workloads = run._import_glpot()

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == _units("end_to_end")
    assert {**tracer_mod.PER_LAYER_UNITS, **run.EXTRA_PER_LAYER_UNITS} == _units("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer" if trace else "end_to_end")
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0.0 for m in result["metrics"].values())


def _first_output(workload, predicate):
    op = next(op for op in workload.ops if predicate(op))
    return op, op.run({})


def test_wrong_paper_output_is_caught(tmp_path):
    wl = workloads.build("paper", 0, str(tmp_path), scale=TINY)
    op, out = _first_output(wl, lambda op: op.name == "E5_orlicz_growth_eq37")
    assert op.check(out) is None
    assert op.check(replace(out, summary={**out.summary, "SLOPE": out.summary["SLOPE"] * (1 + 1e-4)}))
    assert op.check(replace(out, passed=False))


def test_wrong_potential_is_caught(tmp_path):
    wl = workloads.build("potential_grid", 0, str(tmp_path), scale=TINY)
    for prefix in ("indicatorxriesz@", "g_deltaxlog_riesz@"):
        audited = [op for op in wl.ops if op.name.startswith(prefix)]
        outputs = [op.run({}) for op in audited]
        assert all(op.check(out) is None for op, out in zip(audited, outputs))
        # every point of indicator x riesz and one point of every other pair has an oracle
        caught = [op.check(out._replace(value=out.value * (1 + 1e-4))) for op, out in zip(audited, outputs)]
        assert sum(msg is not None for msg in caught) == (len(audited) if prefix.startswith("indicator") else 1)


def test_wrong_norm_and_infimum_are_caught(tmp_path):
    wl = workloads.build("endpoint_sweep", 0, str(tmp_path), scale=TINY)
    op, out = _first_output(wl, lambda op: op.name.startswith("lp_norm g_delta(1)"))
    assert op.check(out) is None
    assert op.check(out._replace(value=out.value * (1 + 1e-5)))
    op, out = _first_output(wl, lambda op: op.name.startswith("truncated_nu"))
    assert op.check(out) is None
    assert op.check(out._replace(value=out.value * 1.01))


def test_known_defects_each_get_a_verdict(tmp_path):
    wl = workloads.build("endpoint_sweep", 0, str(tmp_path), scale=TINY)
    names = [op.name for op in wl.known_defects]
    failing, fixed = run._run_known_defects(wl)
    assert len(set(names)) == len(names) == 19
    assert sorted([name for name, _ in failing] + fixed) == sorted(names)
    assert all(detail for _, detail in failing)


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = run.run("potential_grid", seed=5, seconds=0.0, trace=True, scale=TINY)["metrics"]
    second = run.run("potential_grid", seed=5, seconds=0.0, trace=True, scale=TINY)["metrics"]
    for name in tracer_mod.COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    points = len(workloads.build("potential_grid", 5, str(tmp_path), scale=TINY).ops)
    assert first["potentials.apply_kernel.calls"]["value"] == points
    assert first["quadrature.integrand_evals"]["value"] > 0


def test_tracer_restores_every_function(tmp_path):
    import glpot
    from glpot import potentials, quadrature

    originals = (glpot.apply_kernel, potentials.apply_kernel_report, quadrature._quad, glpot.TestFunction.__call__)
    wl = workloads.build("potential_grid", 0, str(tmp_path), scale=TINY)
    run._run_pass(wl.ops[:3], tracer_mod.Tracer())
    assert (glpot.apply_kernel, potentials.apply_kernel_report, quadrature._quad, glpot.TestFunction.__call__) == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
