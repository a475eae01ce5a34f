"""glpot benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run it from the root of a glpot source checkout: glpot is imported from
``./src``.  Workloads (see ``workloads.py`` and ``WORKLOADS.md``):
``paper``, ``potential_grid`` and ``endpoint_sweep``.

The run repeats passes over the workload's fixed op list until ``--seconds``
have gone by, then checks every output outside the timed region.  With
``--trace 0`` it also starts a few fresh processes that only import glpot
and build the inputs, to time set-up, and the last line of standard output
is a JSON object with the end-to-end metrics.  With ``--trace 1``,
untraced and traced passes alternate and the last line carries the
per-layer metrics derived from the traced passes' spans and counters; the
first traced pass's spans are written to ``perfbench/out``.

Exit status 0 when the run completed (``correct`` reports the checks), 1 when
it could not run at all.
"""

from __future__ import annotations

import os

# one thread per process, fixed before numpy loads its BLAS / OpenMP runtime
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
READY = "ready"
#: seconds one calibration takes at the reference host speed; every time
#: metric is rescaled to that speed (see _calibrate)
CALIBRATION_REF_S = 0.004
#: work between two calibrations inside a pass
CALIBRATION_EVERY_S = 0.03

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
EXTRA_PER_LAYER_UNITS = {"trace.overhead_s": "s", "endpoint_sweep.known_defects": "count"}


@dataclass
class Pass:
    #: op times rescaled to the reference host speed (see _calibrate), s
    latencies: list[float]
    raw_seconds: float
    outputs: list
    errors: list

    @property
    def seconds(self) -> float:
        """Time for the pass at the reference host speed."""
        return sum(self.latencies)

    @property
    def speed(self) -> float:
        return self.seconds / self.raw_seconds if self.raw_seconds else 1.0


_CAL_GRID = np.linspace(0.0, 3.0, 128)


def _calibrate() -> float:
    """Seconds a fixed glpot-free mix of glpot's kinds of work takes now.

    The mix is one QUADPACK integral with a Python integrand, small numpy
    array expressions and a plain Python loop.  On a shared host the speed
    of a core swings by a third within seconds, and this time follows it;
    so each time metric is reported as wall time x CALIBRATION_REF_S / (mean
    calibration time around the measurement).  Raw wall times go to the
    result file.
    """
    t0 = time.perf_counter()
    quad(lambda x: math.exp(-x * x) * math.cos(3.0 * x), 0.0, 6.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    for _ in range(60):
        float(np.sum(np.exp(-_CAL_GRID * np.cosh(_CAL_GRID))))
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def _speed(calibrations: list[float]) -> float:
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def _import_glpot():
    if not (SRC / "glpot" / "__init__.py").is_file():
        raise SystemExit(f"error: no glpot sources under {SRC}; run from the root of a glpot checkout")
    sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]
    import glpot

    if Path(glpot.__file__).resolve().parent != SRC / "glpot":
        raise SystemExit(f"error: imported glpot from {glpot.__file__}, not from {SRC}")
    from perfbench import tracer, workloads

    return tracer, workloads


def _run_pass(ops, tracer=None) -> Pass:
    """One pass over ``ops``.

    The host's speed is calibrated before the first op and after every
    CALIBRATION_EVERY_S of work; each op's time is rescaled by the mean of
    the two calibrations around it, and the calibrations themselves are
    not part of any op's time.
    """
    state: dict = {}
    raw, outputs, errors = [], [], []
    calibrations = [_calibrate()]
    chunk_ends = []  # index of the first op after each calibration but the first
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        work = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = op.run(state), None
            except Exception as exc:  # any raise is a failed op, recorded by name
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            raw.append(dt)
            outputs.append(out)
            errors.append(err)
            work += dt
            if work >= CALIBRATION_EVERY_S:
                calibrations.append(_calibrate())
                chunk_ends.append(len(raw))
                work = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not chunk_ends or chunk_ends[-1] != len(raw):
        calibrations.append(_calibrate())
        chunk_ends.append(len(raw))
    scaled, begin = [], 0
    for i, end in enumerate(chunk_ends):
        factor = _speed(calibrations[i : i + 2])
        scaled += [dt * factor for dt in raw[begin:end]]
        begin = end
    return Pass(scaled, sum(raw), outputs, errors)


def _check(op, out):
    """The op's check verdict; a check that raises counts as a failed check."""
    try:
        return op.check(out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def _verdicts(ops, passes: list[Pass]) -> list[list]:
    """verdicts[i][j]: None if op j of pass i is correct, else the reason.

    An output equal to the first pass's shares its verdict, so each distinct
    output is checked once.
    """
    first = passes[0]
    out = []
    for p in passes:
        row = []
        for j, op in enumerate(ops):
            if p.errors[j] is not None:
                row.append(p.errors[j])
            elif p is not first and first.errors[j] is None and p.outputs[j] == first.outputs[j]:
                row.append(out[0][j])
            else:
                row.append(_check(op, p.outputs[j]))
        out.append(row)
    return out


def _measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall time, host-speed factor) of fresh processes, from process start
    until glpot is imported and the workload's inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    calibration = [_calibrate(), _calibrate()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        before, calibration = calibration, [_calibrate(), _calibrate()]
        times.append((elapsed, _speed(before + calibration)))
    return times


def _run_known_defects(workload) -> tuple[list, list]:
    """(still failing, fixed), each a list of (name, detail).

    A known defect still shows when its op raises or fails its check.
    """
    state: dict = {}
    failing, fixed = [], []
    for op in workload.known_defects:
        try:
            msg = _check(op, op.run(state))
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}"
        if msg:
            failing.append((op.name, msg))
        else:
            fixed.append(op.name)
    return failing, fixed


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
        "threads_per_process": 1,
    }


def _end_to_end(untraced: list[Pass], verdicts: list[list], setup: list, peak_rss_mb: float) -> dict:
    """Each per-pass figure is taken over the pass, then its median over the passes."""
    rates = [sum(v is None for v in row) / p.seconds for p, row in zip(untraced, verdicts)]
    deciles = [statistics.quantiles(p.latencies, n=10, method="inclusive") for p in untraced]
    return {
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "solve_s": statistics.median(p.seconds for p in untraced),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(d[4] for d in deciles) * 1e3,
        "op_p90_ms": statistics.median(d[8] for d in deciles) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(tracer_mod, untraced: list[Pass], traced: list[Pass], layer_runs: list[dict], known: int) -> dict:
    counts = tracer_mod.COUNT_METRICS
    for later in layer_runs[1:]:
        for name in counts:
            if later[name] != layer_runs[0][name]:
                print(f"warning: {name} differs between traced passes: {layer_runs[0][name]} vs {later[name]}")
    out = {}
    for name, unit in tracer_mod.PER_LAYER_UNITS.items():
        if unit in ("s", "us"):
            out[name] = statistics.median(m[name] * p.speed for m, p in zip(layer_runs, traced))
        else:
            out[name] = layer_runs[0][name]
    out["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - statistics.median(
        p.seconds for p in untraced
    )
    out["endpoint_sweep.known_defects"] = known
    return out


def _write_spans(path: Path, spans) -> None:
    t0 = min((s[3] for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for span_id, parent, name, start, end in spans:
            fh.write(f"{span_id},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    tracer_mod, workloads = _import_glpot()
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else _measure_setup(workload_name, seed)
    tracer = tracer_mod.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.build(workload_name, seed, tmp, scale)
        ops = workload.ops
        untraced: list[Pass] = []
        traced: list[Pass] = []
        layer_runs: list[dict] = []
        spans = None
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds or (trace and not traced):
            if trace and len(untraced) > len(traced):
                traced.append(_run_pass(ops, tracer))
                layer_runs.append(tracer.metrics())
                if spans is None:
                    spans = tracer.spans
            else:
                untraced.append(_run_pass(ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_passes = untraced + traced
        verdicts = _verdicts(ops, all_passes)
        failing, fixed = _run_known_defects(workload)

    failures = sorted({(ops[j].name, v) for row in verdicts for j, v in enumerate(row) if v is not None})
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    for name, detail in failing:
        print(f"known defect, still failing: {name}: {detail}")
    for name in fixed:
        print(f"known defect, fixed: {name} now passes its check")
    if trace:
        metrics = _per_layer(tracer_mod, untraced, traced, layer_runs, len(failing))
        units = {**tracer_mod.PER_LAYER_UNITS, **EXTRA_PER_LAYER_UNITS}
        _write_spans(OUT / f"trace-{workload_name}-seed{seed}.csv.gz", spans)
    else:
        metrics = _end_to_end(untraced, verdicts[: len(untraced)], setup, peak_rss_mb)
        units = END_TO_END_UNITS
    failed = sum(v is not None for row in verdicts for v in row)
    result = {
        "correct": failed == 0,
        "attempted": len(ops) * len(all_passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "environment": _environment(),
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "ops_per_pass": len(ops),
            "op_latencies": len(ops) * len(untraced),
            "setup_runs": len(setup),
        },
        "known_defects_still_failing": [name for name, _ in failing],
        "raw_wall_s": {
            "setup": [t for t, _ in setup],
            "passes": [p.raw_seconds for p in untraced],
            "traced_passes": [p.raw_seconds for p in traced],
        },
        "host_speed": {"setup": [v for _, v in setup], "passes": [p.speed for p in all_passes]},
    }
    (OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**details, **result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(details))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "potential_grid", "endpoint_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _, workloads = _import_glpot()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workloads.build(args.workload, args.seed, tmp)
        print(READY, flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
