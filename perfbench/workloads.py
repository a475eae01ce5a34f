"""The benchmark's workloads: fixed op lists built from a seed.

An op is one public-API call with a finite, well-defined answer, paired with
a check of that answer.  ``run`` takes a dict that lives for one pass over
the op list, so ops that share a potential-norm table within a pass (as
the experiments do) rebuild it in every pass.  Checks return ``None`` when
the output is right and the reason otherwise; they run outside the timed
region.

``endpoint_sweep`` also carries known-defect probes: ops that fail today.
They are kept out of the timed op list and run once per benchmark run, so
each stays visible, by name, until a fix makes it pass its check.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Public functions are called through their modules, so the tracer's
# replacements in those modules see the benchmark's own calls.
from glpot import experiments, grand, norms, potentials, psi
from glpot import KernelSpec, PotentialParams, TestFunction, parse_kernel_spec, parse_psi_spec, power_psi
from glpot.cli import parse_form_spec
from glpot.experiments import EXPERIMENT_NAMES, ExperimentConfig
from glpot.quadrature import QuadratureSpec

from . import oracles

WORKLOADS = ("paper", "potential_grid", "endpoint_sweep")

#: relative tolerance for values read off the potential-norm tables, which
#: glpot refines only until the norm moves by less than 0.5%
TABLE_RTOL = 2e-2
#: relative tolerance for values from closed forms or adaptive quadrature at
#: the default rel_tol = 1e-8
QUAD_RTOL = 1e-6


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    known_defects: list[Op] = field(default_factory=list)


def build(name: str, seed: int, out_dir: str, scale: float = 1.0) -> Workload:
    """The workload's ops for ``seed``; ``scale`` < 1 shrinks it for self-tests."""
    by_name = {"paper": _paper, "potential_grid": _potential_grid, "endpoint_sweep": _endpoint_sweep}
    return by_name[name](np.random.default_rng(seed), seed, out_dir, scale)


@functools.cache
def _reference() -> dict:
    """Values the seed commit computed for the table-based outputs."""
    return json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))


def _rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _close(label: str, got: float, want: float, rtol: float) -> Optional[str]:
    if not math.isfinite(got):
        return f"{label} = {got!r} is not finite"
    err = _rel_err(got, want)
    if err > rtol:
        return f"{label} = {got!r}, reference {want!r} (relative error {err:.2e} > {rtol:g})"
    return None


# ---------------------------------------------------------------------------
# paper: E1-E8 at their default configs
# ---------------------------------------------------------------------------


def _check_experiment(name: str, result) -> Optional[str]:
    expected = _reference()["paper"][name]
    if bool(result.passed) != expected["PASS"]:
        return f"{name}: PASS={result.passed}, expected {expected['PASS']}"
    for key, want in expected.get("table", {}).items():
        msg = _close(f"{name} {key}", result.summary[key], want, TABLE_RTOL)
        if msg:
            return msg
    for key, want in expected.get("quad", {}).items():
        msg = _close(f"{name} {key}", result.summary[key], want, QUAD_RTOL)
        if msg:
            return msg
    return None


def _paper(rng, seed: int, out_dir: str, scale: float) -> Workload:
    names = EXPERIMENT_NAMES if scale >= 1.0 else ("E5_orlicz_growth_eq37", "E7_logkernel_lemma2", "E8_bessel_sanity")
    ops = []
    for name in names:
        # the seed drives E6's sample-point jitter, the experiments' only randomness
        cfg = ExperimentConfig(name=name, output_dir=out_dir, seed=seed)
        ops.append(Op(name, lambda state, cfg=cfg: experiments.run_experiment(cfg), lambda out, n=name: _check_experiment(n, out)))
    return Workload("paper", ops)


# ---------------------------------------------------------------------------
# potential_grid: apply_kernel_report as `glpot potential` calls it
# ---------------------------------------------------------------------------

GRID_FORMS = (("indicator", (0.0, 1.0)), ("f_delta", (0.5, 1.0)), ("g_delta", (1.0,)), ("h_delta", (0.5, 1.0)))
GRID_KERNELS = (("riesz", (0.5,)), ("log_riesz", (0.5, 1.0)), ("truncated", (0.5, 0.0, 1.0)), ("bessel", (0.5,)))
#: points per (form, kernel) pair: 4 x (3 x 70 + 40) = 1000.  A bessel point
#: costs 2-50 ms, the others under 2 ms; with 16% bessel points op_p90_ms falls
#: inside the narrow f_delta x bessel cluster (13-16 ms), not on a cluster edge.
GRID_POINTS = {"riesz": 70, "log_riesz": 70, "truncated": 70, "bessel": 40}
GRID_RANGE = (-3.0, 6.0)


def _spec_text(name: str, args: tuple[float, ...]) -> str:
    return f"{name}:{','.join(format(a, 'g') for a in args)}"


def _check_potential(label: str, out, want: Optional[float]) -> Optional[str]:
    value, error = out
    if not (math.isfinite(value) and value >= 0.0):
        return f"{label}: potential {value!r} is not a finite non-negative number"
    if want is None:
        return None
    return _close(label, value, want, QUAD_RTOL)


def _potential_grid(rng, seed: int, out_dir: str, scale: float) -> Workload:
    spec = QuadratureSpec()
    lo, hi = GRID_RANGE
    ops = []
    for form, form_args in GRID_FORMS:
        f = parse_form_spec(_spec_text(form, form_args))
        for kernel, kernel_args in GRID_KERNELS:
            k = parse_kernel_spec(_spec_text(kernel, kernel_args))
            n = max(2, round(GRID_POINTS[kernel] * scale))
            step = (hi - lo) / n
            xs = lo + step * (np.arange(n) + rng.uniform(0.0, 1.0, n))
            audited = int(rng.integers(n))  # one point per pair is checked against mpmath
            for i, x in enumerate(float(v) for v in xs):
                label = f"{form}x{kernel}@{x:.6f}"
                if form == "indicator" and kernel == "riesz":
                    want = lambda x=x, a=kernel_args[0]: oracles.indicator_riesz(a, x)
                elif i == audited:
                    want = lambda x=x, a=(form, form_args, kernel, kernel_args): oracles.potential_mpmath(*a, x)
                else:
                    want = lambda: None
                ops.append(
                    Op(
                        label,
                        lambda state, f=f, x=x, k=k: potentials.apply_kernel_report(f, x, k, spec),
                        lambda out, label=label, want=want: _check_potential(label, out, want()),
                    )
                )
    return Workload("potential_grid", _shuffled(ops, rng))


def _shuffled(ops: list[Op], rng) -> list[Op]:
    """``ops`` in a seeded random order.  Each latency percentile then samples
    the whole pass, not one stretch of it, when the host's speed drifts."""
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# endpoint_sweep: exponents marched toward the endpoints
# ---------------------------------------------------------------------------

LADDER_FORMS = (
    "g_delta:0",
    "g_delta:1",
    "g_delta:2.5",
    "f_delta:0.5,0",
    "f_delta:0.5,1",
    "f_delta:0.25,2",
    "h_delta:0.5,1",
    "f_zero:0.5,1",
    "big_r:0.5,1",
    "example3:0.5,1",
    "indicator:0,1",
)
#: offsets 2^-(k+u), k = 1..LADDER_DEPTH: down to 2^-23.25 from a finite endpoint.
#: The deeper offsets where lp_norm fails today are known-defect probes.
LADDER_DEPTH = 23
#: u is drawn from [0, LADDER_JITTER): a quarter octave, so seeds move the points
#: without changing how much work the ladder is
LADDER_JITTER = 0.25
#: toward an infinite endpoint: a + 2^(k+u), k = 1..LADDER_GROWTH, so p < a + 39
LADDER_GROWTH = 5
GRAND_PAIRS = (
    ("f_delta:0.5,0", "power:a=1,b=2,beta=0,gamma=0.5"),
    ("g_delta:0", "power:a=1,b=2,beta=1,gamma=1"),
    ("big_r:0.5,0", "power:a=1,b=2,beta=0,gamma=1"),
)
V_ALPHA = 0.5
V_FAMILIES = ("g_delta:0", "g_delta:1", "f_delta:0.5,0", "f_delta:0.5,1")
V_OFFSETS = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3, 10**-3.5)
E4_RADII = tuple(2.0**k for k in range(2, 13))
NU_PSI = (1.0, 2.0, 0.0, 1.0)  # power weight (a, b, beta, gamma) of E5


def _interval(f: TestFunction) -> tuple[float, float]:
    """The exponent interval on which |f|_p is finite (p >= 1)."""
    a, b = 1.0, math.inf
    for piece in f.pieces:
        if piece.role == "origin":
            b = min(b, 1.0 / piece.power)
        elif piece.role == "tail":
            a = max(a, 1.0 / piece.power)
    return a, b


def _lp_reference(f: TestFunction, p: float) -> Optional[float]:
    """Closed-form |f|_p where one exists."""
    if f.kind in ("g_delta", "f_delta") or (f.kind == "big_r" and f.slow is None):
        return norms.lp_norm_closed_form(f, p)
    if f.kind == "h_delta":
        parts = [TestFunction.f_delta(f.alpha, f.delta), TestFunction.g_delta(f.delta)]
        return oracles.sum_lp([norms.lp_norm_closed_form(g, p) for g in parts], p)
    if f.kind == "example3":
        return oracles.example3_lp(f.alpha, f.delta, p)
    if f.kind == "indicator":
        return oracles.indicator_lp(*f.interval, p)
    return None


def _check_lp(label: str, f: TestFunction, p: float, out) -> Optional[str]:
    want = _lp_reference(f, p)
    return _close(label, out.value, want, QUAD_RTOL) if want is not None else None


def _lp_op(f: TestFunction, p: float) -> Op:
    label = f"lp_norm {f.label} p={p!r}"
    return Op(label, lambda state: norms.lp_norm_report(f, p), lambda out: _check_lp(label, f, p, out))


def _ladder(a: float, b: float, rng, depth: int, growth: int) -> list[float]:
    def u() -> float:
        return rng.uniform(0.0, LADDER_JITTER)

    ps = [a + 2.0 ** -(k + u()) for k in range(1, depth + 1)]
    if b == math.inf:
        ps += [a + 2.0 ** (k + u()) for k in range(1, growth + 1)]
    else:
        ps += [b - 2.0 ** -(k + u()) for k in range(1, depth + 1)]
    return ps


def _closed_form_op(delta: float, p: float) -> Op:
    f = TestFunction.g_delta(delta)
    label = f"lp_norm_closed_form {f.label} p={p!r}"
    return Op(
        label,
        lambda state: norms.lp_norm_closed_form(f, p),
        lambda out: _close(label, out, oracles.tail_lp(delta, p), QUAD_RTOL),
    )


def _check_grand(label: str, f: TestFunction, weight, out) -> Optional[str]:
    if out.left_unbounded_suspected or out.right_unbounded_suspected or out.divergent_points:
        return f"{label}: bounded pair reported unbounded or divergent"
    want = norms.lp_norm_closed_form(f, out.argmax_p) / weight(out.argmax_p)
    return _close(f"{label} at p={out.argmax_p!r}", out.value, want, QUAD_RTOL)


def _grand_op(form: str, psi_text: str) -> Op:
    f, weight = parse_form_spec(form), parse_psi_spec(psi_text)
    label = f"grand_norm {form} vs {psi_text}"
    return Op(
        label,
        lambda state: grand.grand_norm(f, weight, QuadratureSpec()),
        lambda out: _check_grand(label, f, weight, out),
    )


def _evaluator(state: dict, key: str, f: TestFunction, kernel: KernelSpec) -> grand.PotentialNormEvaluator:
    if key not in state:
        state[key] = grand.PotentialNormEvaluator(f, kernel, QuadratureSpec())
    return state[key]


def _v_op(form: str, offset: float) -> Op:
    """V at p = 1 + offset (tail family) or 1/alpha - offset (origin family),
    sharing one evaluator per family within a pass, as E2 and E3 do."""
    f = parse_form_spec(form)
    p = 1.0 + offset if f.kind == "g_delta" else 1.0 / V_ALPHA - offset
    label = f"V {form} offset={offset:.3g}"

    def run(state):
        ev = _evaluator(state, f"V {form}", f, KernelSpec.riesz(V_ALPHA))
        return grand.v_functional(f, p, V_ALPHA, QuadratureSpec(), evaluator=ev)

    def check_v(out):
        if not (math.isfinite(out) and out > 0.0):
            return f"{label}: V = {out!r}"
        want = _reference()["endpoint_sweep"]["V"].get(f"{form}@{offset:.3g}")
        return _close(label, out, want, TABLE_RTOL) if want is not None else None

    return Op(label, run, check_v)


def _e4_op(r: float) -> Op:
    f = TestFunction.f_zero(0.5, 1.0)
    kernel = KernelSpec.truncated(0.5, radius=1.0)
    label = f"E4 restricted norm r={r:g}"

    def run(state):
        return math.exp(_evaluator(state, "E4", f, kernel).restricted_log_qnorm(r, 1.0))

    want = _reference()["endpoint_sweep"]["E4"][f"{r:g}"]
    return Op(label, run, lambda out: _close(label, out, want, TABLE_RTOL))


def _nu_objective(p: float, r: float, alpha: float, weight) -> float:
    """The truncated_nu objective for beta = 0, S = 1, written out from its definition."""
    k = r if p == 1.0 else r * p / ((r + 1.0) * p - r)
    if not weight.a < k < weight.b:
        return math.inf
    return (1.0 / (1.0 - alpha) - p) ** (alpha - 1.0) * weight(k)


def _nu_op(r: float, probes: np.ndarray) -> Op:
    params = PotentialParams(1, V_ALPHA)
    weight = power_psi(*NU_PSI)
    p_hi = params.q_lower
    b = weight.b
    p_lo = max(1.0, b * r / (b * r + b - r))  # where k(p) enters the weight's domain
    label = f"truncated_nu r={r!r}"

    def check_nu(out):
        at_min = _nu_objective(out.argmin_p, r, V_ALPHA, weight)
        if _close(label, out.value, at_min, 1e-12):
            return f"{label}: value {out.value!r} is not the objective at argmin_p ({at_min!r})"
        # the infimum must not exceed the objective at any feasible exponent
        for u in probes:
            p = p_hi - (p_hi - p_lo) * u
            if _nu_objective(p, r, V_ALPHA, weight) < out.value * (1.0 - 1e-9):
                return f"{label}: objective at p={p!r} is below the reported infimum {out.value!r}"
        return None

    return Op(label, lambda state: psi.truncated_nu(weight, params, r), check_nu)


def _endpoint_sweep(rng, seed: int, out_dir: str, scale: float) -> Workload:
    depth = max(2, round(LADDER_DEPTH * scale))
    independent = []
    for form in LADDER_FORMS:
        f = parse_form_spec(form)
        a, b = _interval(f)
        independent += [_lp_op(f, p) for p in _ladder(a, b, rng, depth, LADDER_GROWTH)]
    nu_radii = [10.0 ** (1.0 + (j + rng.uniform()) / 2.0) for j in range(10)]  # 10 .. 1e6
    independent += [_nu_op(r, rng.uniform(0.0, 1.0, 32) ** 4) for r in nu_radii]
    ops = _shuffled(independent, rng)
    if scale >= 1.0:
        # in ladder order: these share potential-norm tables within a pass
        ops += [_grand_op(form, weight) for form, weight in GRAND_PAIRS]
        ops += [_v_op(form, off) for form in V_FAMILIES for off in V_OFFSETS]
        ops += [_e4_op(r) for r in E4_RADII]
    return Workload("endpoint_sweep", ops, _known_defects())


def _known_defects() -> list[Op]:
    """Ops that fail on glpot today, each named for the defect it shows."""
    defects = [
        # ToleranceError within ~2e-9 of an endpoint of the exponent interval
        _lp_op(TestFunction.g_delta(1.0), 1.0 + 2.0**-29),
        _lp_op(TestFunction.f_delta(0.5, 1.0), 2.0 - 2.0**-29),
        _lp_op(TestFunction.f_delta(0.25, 2.0), 4.0 - 2.0**-26),
        # the closed-form oracle overflows (OverflowError), or underflows to 0,
        # once Gamma(delta p + 1) leaves the double range
        _closed_form_op(1.0, 256.0),
        _closed_form_op(0.0, 1024.0),
        # grand_norm's p-grid reaches the lp_norm failures above: ToleranceError
        _grand_op("f_delta:0.5,1", "power:a=1,b=2,beta=0,gamma=1.5"),
        _grand_op("h_delta:0.5,1", "power:a=1,b=2,beta=2,gamma=2"),
        _grand_op("big_r:0.5,1", "power:a=1,b=2,beta=0,gamma=1.5"),
    ]
    # V at deep offsets: the potential table hits its range cap, or a finite
    # norm is reported divergent
    defects += [_v_op(form, 1e-4) for form in ("g_delta:0", "g_delta:1", "f_delta:0.5,1")]
    defects += [_v_op(form, off) for off in (1e-5, 1e-6) for form in V_FAMILIES]
    return defects
