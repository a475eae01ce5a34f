"""Spans and counters recorded around glpot's public functions, from outside.

:meth:`Tracer.install` replaces each traced function in every glpot module
namespace that binds it (``from .x import f`` copies the reference), so
calls between layers are caught as well as calls from the benchmark.  The
``quad`` binding in ``glpot.quadrature`` is wrapped too, and each integrand
it receives is wrapped to count evaluations.  :meth:`Tracer.uninstall`
restores every original.

A span is (id, parent id, name, start, end).  A layer's self time is its
spans' durations minus the time of their child spans; time inside a
QUADPACK integrand callback is taken out of the quad span's self time and
reported as ``quadrature.callback_s`` instead.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import warnings
from collections import Counter, defaultdict

from scipy.integrate import IntegrationWarning

#: module -> public functions given a span
SPAN_FUNCTIONS = {
    "quadrature": ("integrate_panel", "integrate_decaying", "power_endpoint_integral", "log_piecewise_integral"),
    "special": ("upper_gamma", "log_upper_gamma"),
    "norms": ("lp_norm", "lp_norm_report", "lp_norm_closed_form"),
    "potentials": (
        "apply_kernel",
        "apply_kernel_report",
        "macdonald_K",
        "log_potential_near",
        "log_potential_far",
        "interval_mass",
        "fractional_maximal",
        "hl_maximal",
    ),
    "grand": ("grand_norm", "v_functional"),
    "psi": ("truncated_nu", "truncated_nu_general"),
    "experiments": ("run_experiment",),
}
#: PotentialNormEvaluator methods given a span
EVALUATOR_METHODS = ("log_qnorm", "restricted_log_qnorm")
#: spans that each compute one point of a potential-norm table
TABLE_POINT_SPANS = frozenset(
    {"potentials.log_potential_near", "potentials.log_potential_far", "potentials.apply_kernel_report"}
)
EXPERIMENT_TAGS = tuple(f"E{i}" for i in range(1, 9))

#: per-layer metric -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "quadrature.quad_calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.self_s": "s",
    "quadrature.callback_s": "s",
    "quadrature.us_per_eval": "us",
    "quadrature.warnings": "count",
    "potentials.scaled.calls": "count",
    "potentials.scaled.self_s": "s",
    "grand.table_points": "count",
    "grand.refine_rounds": "count",
    "grand.log_qnorm.calls": "count",
    "grand.log_qnorm.self_s": "s",
    "grand.restricted_log_qnorm.self_s": "s",
    "potentials.apply_kernel.calls": "count",
    "potentials.apply_kernel.self_s": "s",
    "potentials.macdonald_K.calls": "count",
    "potentials.macdonald_K.self_s": "s",
    "catalog.density_evals": "count",
    "potentials.interval_mass.calls": "count",
    "potentials.interval_mass.self_s": "s",
    "potentials.fractional_maximal.self_s": "s",
    "special.upper_gamma.calls": "count",
    "special.upper_gamma.self_s": "s",
    "norms.lp_norm.calls": "count",
    "norms.lp_norm.self_s": "s",
    "norms.closed_form.self_s": "s",
    "norms.max_rel_err": "ratio",
    "grand.grand_norm.self_s": "s",
    "psi.truncated_nu.self_s": "s",
    **{f"experiments.{tag}.s": "s" for tag in EXPERIMENT_TAGS},
}
#: metrics that must repeat exactly from run to run
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


class Tracer:
    """Records spans and counters for one pass; see the module docstring."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.experiment_time: defaultdict[str, float] = defaultdict(float)
        self.integrand_evals = 0
        self.density_evals = 0
        self.callback_s = 0.0
        self.max_rel_err = 0.0
        # frame: [span id, name, start, child time]; id 0 is the pass itself
        self._stack: list[list] = [[0, "pass", 0.0, 0.0]]
        self._next_id = 1
        self._in_evaluator = 0
        self._in_table_point = 0

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.spans.append((span_id, self._stack[-1][0], name, start, end))
        self.self_time[name] += dur - child
        self.total_time[name] += dur
        self.calls[name] += 1
        self._stack[-1][3] += dur
        return dur

    def _span(self, name: str, fn):
        is_table_point = name in TABLE_POINT_SPANS
        is_lp = name == "norms.lp_norm_report"
        is_experiment = name == "experiments.run_experiment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table_point = is_table_point and self._in_evaluator and not self._in_table_point
            if table_point:
                self.counters["grand.table_points"] += 1
                self._in_table_point += 1
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = self._close(frame)
                if table_point:
                    self._in_table_point -= 1
                if is_experiment:
                    self.experiment_time[args[0].name.split("_")[0]] += dur
            if is_lp and out.rel_error > self.max_rel_err:
                self.max_rel_err = out.rel_error
            return out

        return traced

    def _evaluator_span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(evaluator, *args, **kwargs):
            ratio_before = evaluator.ratio
            self._in_evaluator += 1
            frame = self._open(name)
            try:
                return fn(evaluator, *args, **kwargs)
            finally:
                self._close(frame)
                self._in_evaluator -= 1
                # each refinement round takes the square root of the grid ratio
                rounds = math.log2(math.log(ratio_before) / math.log(evaluator.ratio))
                self.counters["grand.refine_rounds"] += round(rounds)

        return traced

    def _quad(self, quad):
        @functools.wraps(quad)
        def traced(func, *args, **kwargs):
            frame = self._open("quadrature.quad")
            clock = time.perf_counter

            def integrand(x):
                self.integrand_evals += 1
                nested_before = frame[3]
                t0 = clock()
                try:
                    return func(x)
                finally:
                    # spans closed inside the callback already added their time
                    own = clock() - t0 - (frame[3] - nested_before)
                    self.callback_s += own
                    frame[3] += own

            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = quad(integrand, *args, **kwargs)
            finally:
                self._close(frame)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    self.counters["quadrature.warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        return traced

    def _counted_call(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.density_evals += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from glpot import catalog, grand, quadrature

        modules = [m for name, m in sys.modules.items() if name == "glpot" or name.startswith("glpot.")]
        for layer, names in SPAN_FUNCTIONS.items():
            home = sys.modules[f"glpot.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        evaluator = grand.PotentialNormEvaluator
        for method in EVALUATOR_METHODS:
            self._patch(evaluator, method, self._evaluator_span(f"grand.{method}", getattr(evaluator, method)))
        self._patch(quadrature, "_quad", self._quad(quadrature._quad))
        self._patch(catalog.TestFunction, "__call__", self._counted_call(catalog.TestFunction.__call__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum((self.self_time[n] for n in names), 0.0)

    def _layer_self(self, layer: str) -> float:
        return sum((t for n, t in self.self_time.items() if n.startswith(layer + ".")), 0.0)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric for the pass just traced."""
        evals = self.integrand_evals
        quad_total = self.total_time["quadrature.quad"]
        out = {
            "quadrature.quad_calls": self.calls["quadrature.quad"],
            "quadrature.integrand_evals": evals,
            "quadrature.self_s": self._layer_self("quadrature"),
            "quadrature.callback_s": self.callback_s,
            "quadrature.us_per_eval": quad_total / evals * 1e6 if evals else 0.0,
            "quadrature.warnings": self.counters["quadrature.warnings"],
            "potentials.scaled.calls": self.calls["potentials.log_potential_near"]
            + self.calls["potentials.log_potential_far"],
            "potentials.scaled.self_s": self._self("potentials.log_potential_near", "potentials.log_potential_far"),
            "grand.table_points": self.counters["grand.table_points"],
            "grand.refine_rounds": self.counters["grand.refine_rounds"],
            "grand.log_qnorm.calls": self.calls["grand.log_qnorm"],
            "grand.log_qnorm.self_s": self._self("grand.log_qnorm"),
            "grand.restricted_log_qnorm.self_s": self._self("grand.restricted_log_qnorm"),
            "potentials.apply_kernel.calls": self.calls["potentials.apply_kernel_report"],
            "potentials.apply_kernel.self_s": self._self("potentials.apply_kernel", "potentials.apply_kernel_report"),
            "potentials.macdonald_K.calls": self.calls["potentials.macdonald_K"],
            "potentials.macdonald_K.self_s": self._self("potentials.macdonald_K"),
            "catalog.density_evals": self.density_evals,
            "potentials.interval_mass.calls": self.calls["potentials.interval_mass"],
            "potentials.interval_mass.self_s": self._self("potentials.interval_mass"),
            "potentials.fractional_maximal.self_s": self._self(
                "potentials.fractional_maximal", "potentials.hl_maximal"
            ),
            "special.upper_gamma.calls": self.calls["special.upper_gamma"],
            "special.upper_gamma.self_s": self._layer_self("special"),
            "norms.lp_norm.calls": self.calls["norms.lp_norm_report"],
            "norms.lp_norm.self_s": self._self("norms.lp_norm", "norms.lp_norm_report"),
            "norms.closed_form.self_s": self._self("norms.lp_norm_closed_form"),
            "norms.max_rel_err": self.max_rel_err,
            "grand.grand_norm.self_s": self._self("grand.grand_norm"),
            "psi.truncated_nu.self_s": self._self("psi.truncated_nu", "psi.truncated_nu_general"),
        }
        for tag in EXPERIMENT_TAGS:
            out[f"experiments.{tag}.s"] = self.experiment_time[tag]
        return out
