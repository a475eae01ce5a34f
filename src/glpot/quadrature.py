"""Adaptive quadrature helpers for endpoint-singular and decaying integrands.

The splitting and substitution logic (what turns a singular integral into a
sequence of well-behaved panels) lives here and in the callers; the panels
themselves are delegated to QUADPACK via :func:`scipy.integrate.quad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from scipy.integrate import quad as _quad

from .errors import DomainError, ToleranceError


class IntegralResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, subdivision depth and tail-truncation policy.

    ``max_depth`` caps both QUADPACK subdivisions per panel and the number
    of doubling panels used on semi-infinite ranges.  The tail rule bounds
    the discarded mass by ``rel_tol/10`` of the integral's scale.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_depth: int = 50

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.max_depth < 10:
            raise DomainError(f"max_depth must be >= 10, got {self.max_depth}")

    def tail_cutoff(self, decay_rate: float, poly_degree: float, start: float) -> float:
        """Truncation point T for integrands bounded by t^m e^(-c t), t >= start.

        Chosen so the analytic tail bound beyond T falls below ``rel_tol/10``
        of the integrand's peak scale.
        """
        if decay_rate <= 0.0:
            raise DomainError(f"decay rate must be positive, got {decay_rate!r}")
        c, m = decay_rate, max(poly_degree, 0.0)
        t_peak = max(m / c, start)
        log_peak = (m * math.log(t_peak) if t_peak > 0.0 else 0.0) - c * t_peak
        log_target = log_peak + math.log(self.rel_tol / 10.0)
        t = max(t_peak, start) + 1.0 / c
        for _ in range(200):
            t_new = ((m * math.log(t) if m > 0.0 else 0.0) - log_target) / c
            t_new = max(t_new, start + 1.0 / c)
            if abs(t_new - t) <= 1e-9 * t:
                t = t_new
                break
            t = t_new
        # keep the geometric factor 1/(1 - m/(cT)) of the tail bound below 2
        while c * t <= 2.0 * m + 2.0:
            t *= 1.5
        return t


def _eps_abs(spec: QuadratureSpec) -> float:
    return min(spec.abs_tol, 1e-12)


def integrate_panel(fn: Callable[[float], float], a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """One adaptive QUADPACK panel on a finite interval."""
    if not b > a:
        return IntegralResult(0.0, 0.0)
    value, err = _quad(fn, a, b, epsabs=_eps_abs(spec), epsrel=spec.rel_tol / 10.0, limit=spec.max_depth * 4)
    return IntegralResult(value, err)


def integrate_decaying(
    fn: Callable[[float], float],
    start: float,
    spec: QuadratureSpec,
    decay_rate: float | None = None,
    poly_degree: float = 0.0,
    first_width: float = 1.0,
) -> IntegralResult:
    """Integrate fn over (start, infinity) for an eventually-decaying integrand.

    Uses doubling panels: stops once a panel contributes less than
    ``rel_tol/10`` of the running total and the analytic truncation point
    (when a decay hint is available) has been passed.
    """
    total, err = 0.0, 0.0
    lo, width = start, first_width
    horizon = (
        spec.tail_cutoff(decay_rate, poly_degree, start)
        if decay_rate is not None and decay_rate > 0.0
        else None
    )
    for panel in range(spec.max_depth):
        hi = lo + width
        v, e = _quad(fn, lo, hi, epsabs=_eps_abs(spec), epsrel=spec.rel_tol / 10.0, limit=spec.max_depth * 4)
        total += v
        err += e
        lo = hi
        width *= 2.0
        small = abs(v) <= max(spec.abs_tol, spec.rel_tol / 10.0 * abs(total))
        covered = lo >= horizon if horizon is not None else panel >= 2
        if small and covered:
            return IntegralResult(total, err)
    raise ToleranceError(
        f"decaying integral did not settle within {spec.max_depth} doubling panels",
        achieved=err / abs(total) if total else math.inf,
    )


def power_endpoint_integral(
    fn_rest: Callable[[float], float],
    exponent: float,
    width: float,
    spec: QuadratureSpec,
    lower: float = 0.0,
) -> IntegralResult:
    """Integral of u^exponent * fn_rest(u) over u in (lower, width), exponent > -1.

    Substitutes u = w^(1/(1+exponent)) so the singularity at u = 0 is
    absorbed into the measure; fn_rest may keep a mild (log) singularity.
    """
    if exponent <= -1.0:
        raise DomainError(f"endpoint exponent must exceed -1, got {exponent}")
    s = 1.0 + exponent

    def transformed(w: float) -> float:
        u = w ** (1.0 / s)
        return fn_rest(u) / s

    return integrate_panel(transformed, lower**s, width**s, spec)


def logsumexp_pair(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; tolerates -inf."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = max(a, b)
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def log_panel_integral(y1: float, y2: float, g1: float, g2: float) -> float:
    """log of the exact integral of exp(linear interpolant of g) over [y1, y2]."""
    h = y2 - y1
    if h <= 0.0:
        return -math.inf
    b = (g2 - g1) / h
    m = max(g1, g2)
    if m == -math.inf:
        return -math.inf
    if abs(b) * h < 1e-12:
        return m + math.log(h)
    val = (math.exp(g2 - m) - math.exp(g1 - m)) / b
    if val <= 0.0:
        return -math.inf
    return m + math.log(val)


def log_piecewise_integral(ys, gs) -> float:
    """log of the integral of exp(piecewise-linear g) over the grid ``ys``."""
    total = -math.inf
    for i in range(len(ys) - 1):
        total = logsumexp_pair(total, log_panel_integral(ys[i], ys[i + 1], gs[i], gs[i + 1]))
    return total
