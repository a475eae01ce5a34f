"""Quadrature helpers for endpoint-singular and decaying integrands.

The splitting and substitution logic (what turns a singular integral into a
sequence of well-behaved panels) lives here and in the callers.  Every glpot
integral goes to :func:`integrate_batch` (the L_p norms of every exponent of a
request, the interval masses, one row per interval, the scaled potentials
behind the potential-norm tables, and each pointwise potential, one row per
sub-piece): composite Gauss-Kronrod that evaluates every panel once, at the
41 nodes of the nested 20-point Gauss / 41-point Kronrod pair (G20/K41, the
``qk41`` rule of Piessens et al., *QUADPACK*, 1983), takes the K41 sum
against the G20 sum as the panel's error, and bisects, all together, only
the panels that miss its tolerance ``BATCH_REL_TOL``.  Its callers end
decaying tails where :func:`tail_cutoff` says the rest falls below a tenth
of that tolerance.
A :class:`QuadratureSpec` is only the acceptance tolerance the public entry
points check their results against.  The QUADPACK integrators below have no
glpot caller: ``perfbench/tracer.py`` binds them by name, and
``tests/test_norms.py`` uses :func:`integrate_decaying` as a reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad as _quad

from .errors import DomainError, ToleranceError


class IntegralResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class QuadratureSpec:
    """The acceptance tolerance.

    Every public entry point reports ToleranceError for a result whose
    estimated relative error exceeds ``rel_tol``.
    """

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.rel_tol > 0.0:  # NaN too
            raise DomainError("tolerances must be positive")


#: QUADPACK's absolute tolerance and subdivision limit per panel
_EPS_ABS = 1e-12
_QUAD_LIMIT = 200
#: most doubling panels :func:`integrate_decaying` takes
_DOUBLING_PANELS = 50


def integrate_panel(fn: Callable[[float], float], a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """One adaptive QUADPACK panel on a finite interval (for :func:`power_endpoint_integral` alone)."""
    if not b > a:
        return IntegralResult(0.0, 0.0)
    value, err = _quad(fn, a, b, epsabs=_EPS_ABS, epsrel=spec.rel_tol / 10.0, limit=_QUAD_LIMIT)
    return IntegralResult(value, err)


def integrate_decaying(fn: Callable[[float], float], start: float, spec: QuadratureSpec) -> IntegralResult:
    """Integrate fn over (start, infinity) for an eventually-decaying integrand.

    Uses doubling panels of width 1, 2, 4, ...: stops at the third panel or
    later, once a panel contributes less than ``rel_tol/10`` of the running
    total (or 1e-12), and raises ToleranceError past 50 panels.
    No glpot path calls it; ``tests/test_norms.py`` uses it as a reference.
    """
    total, err = 0.0, 0.0
    lo, width = start, 1.0
    for panel in range(_DOUBLING_PANELS):
        hi = lo + width
        v, e = _quad(fn, lo, hi, epsabs=_EPS_ABS, epsrel=spec.rel_tol / 10.0, limit=_QUAD_LIMIT)
        total += v
        err += e
        lo = hi
        width *= 2.0
        if abs(v) <= max(_EPS_ABS, spec.rel_tol / 10.0 * abs(total)) and panel >= 2:
            return IntegralResult(total, err)
    raise ToleranceError(
        f"decaying integral did not settle within {_DOUBLING_PANELS} doubling panels",
        achieved=err / abs(total) if total else math.inf,
    )


def power_endpoint_integral(
    fn_rest: Callable[[float], float],
    exponent: float,
    width: float,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integral of u^exponent * fn_rest(u) over u in (0, width), exponent > -1.

    Substitutes u = w^(1/(1+exponent)) so the singularity at u = 0 is
    absorbed into the measure; fn_rest may keep a mild (log) singularity.
    No glpot path calls it any more; ``perfbench/tracer.py`` binds it by name.
    """
    if exponent <= -1.0:
        raise DomainError(f"endpoint exponent must exceed -1, got {exponent}")
    s = 1.0 + exponent

    def transformed(w: float) -> float:
        u = w ** (1.0 / s)
        return fn_rest(u) / s

    return integrate_panel(transformed, 0.0, width**s, spec)


# ---------------------------------------------------------------------------
# batched fixed-order rule
# ---------------------------------------------------------------------------

#: accuracy of :func:`integrate_batch`, relative error per integral; :func:`tail_cutoff`
#: ends decaying tails at a tenth of it
BATCH_REL_TOL = 1e-13
#: most times :func:`integrate_batch` bisects a panel
MAX_DEPTH = 50
#: most panels one row of :func:`integrate_batch` may have on one level
MAX_ROW_PANELS = 1024

# The nested 20-point Gauss / 41-point Kronrod pair on (-1, 1), QUADPACK's qk41: the
# Kronrod nodes x >= 0 from the outside in, their weights, and the weights of the Gauss
# nodes among them (every second one, from the first).  Computed in 60-digit mpmath as the
# 20 Gauss-Legendre nodes and the 21 roots of the Stieltjes polynomial that interlace them,
# with the weights that make the rule exact for Legendre polynomials of degree 0 to 40,
# then rounded once; cf. Laurie, Math. Comp. 66 (1997) 1133-1145.
_XK = (
    0.9988590315882777, 0.9931285991850949, 0.9815078774502503,
    0.9639719272779138, 0.9408226338317548, 0.912234428251326,
    0.878276811252282, 0.8391169718222188, 0.7950414288375512,
    0.7463319064601508, 0.6932376563347514, 0.636053680726515,
    0.5751404468197103, 0.5108670019508271, 0.4435931752387251,
    0.37370608871541955, 0.301627868114913, 0.22778585114164507,
    0.15260546524092267, 0.07652652113349734, 0.0,
)
_WK = (
    0.0030735837185205317, 0.008600269855642943, 0.014626169256971253,
    0.020388373461266523, 0.02588213360495116, 0.0312873067770328,
    0.036600169758200796, 0.041668873327973685, 0.04643482186749767,
    0.05094457392372869, 0.05519510534828599, 0.05911140088063957,
    0.06265323755478117, 0.06583459713361842, 0.06864867292852161,
    0.07105442355344407, 0.07303069033278667, 0.07458287540049918,
    0.07570449768455667, 0.07637786767208074, 0.07660071191799965,
)
_WG = (
    0.017614007139152118, 0.04060142980038694, 0.06267204833410907,
    0.08327674157670475, 0.10193011981724044, 0.11819453196151841,
    0.13168863844917664, 0.14209610931838204, 0.14917298647260374,
    0.15275338713072584,
)


@functools.cache
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 41 nodes on (0, 1), ascending, their K41 weights, and the G20 weights of the odd-position nodes."""
    xk, wk, wg = np.array(_XK), np.array(_WK), np.array(_WG)
    x = np.concatenate([-xk, xk[-2::-1]])
    return (x + 1.0) / 2.0, np.concatenate([wk, wk[-2::-1]]) / 2.0, np.concatenate([wg, wg[::-1]]) / 2.0


def integrate_batch(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> IntegralResult:
    """Composite Gauss-Kronrod for many integrals at once.

    Row i of the (rows, panels) arrays ``lo`` and ``hi`` holds the panels of
    integral i; an empty panel (lo == hi) adds nothing.  ``fn(rows, x)``
    returns the integrand of integral ``rows[j]`` at the nodes ``x[j]``.
    Every panel is evaluated once, at the 41 nodes of the nested G20/K41
    pair: its value is the K41 sum, its error the K41 sum's distance from
    the G20 sum over every second node.  A panel whose error exceeds
    BATCH_REL_TOL of its integral's first estimate is bisected, all such
    panels together, up to MAX_DEPTH times.
    A row with a panel still unresolved then, or one whose next level would
    have more than MAX_ROW_PANELS panels (a noisy integrand), stops there
    with the error inf; the other rows are unaffected.
    Returns the values and the summed errors, one per row.
    A row's result depends on that row alone, bit for bit: not on the
    other rows, their number or their order.
    """
    x, wk, wg = _kronrod_rule()
    n_rows = lo.shape[0]
    panel_rows, panel_cols = np.nonzero(hi != lo)
    a, b, rows = lo[panel_rows, panel_cols], hi[panel_rows, panel_cols], panel_rows

    def panels(a, b, rows):
        """The K41 value and the |K41 - G20| error of each panel."""
        width = b - a
        f = fn(rows, a[:, None] + width[:, None] * x)
        # (f * w).sum, not f @ w: a matrix product's blocking can vary with the
        # batch, and a row's bits must not
        value = (f * wk).sum(axis=1) * width
        return value, np.abs(value - (f[:, 1::2] * wg).sum(axis=1) * width)

    value, error = panels(a, b, rows)
    first_sums = _row_sums(value, rows, n_rows)
    tol = BATCH_REL_TOL * np.abs(first_sums)
    bisect = error > tol[rows]
    if not np.count_nonzero(bisect):  # no panel bisects: no level to carry back
        return IntegralResult(first_sums, _row_sums(error, rows, n_rows))
    levels = []  # per depth: (value, error, bisected) of its panels
    for depth in range(MAX_DEPTH + 1):
        if depth == MAX_DEPTH or 2 * np.count_nonzero(bisect) > MAX_ROW_PANELS:
            # rows unresolved at the depth cap, or whose next level would pass the panel cap
            stop = bisect
            if depth < MAX_DEPTH:
                stop = bisect & (2 * np.bincount(rows[bisect], minlength=n_rows) > MAX_ROW_PANELS)[rows]
            error[stop] = np.inf
            bisect &= ~stop
        levels.append((value, error, bisect))
        if not bisect.any():
            break
        a, b, rows = a[bisect], b[bisect], rows[bisect]
        mid = a + (b - a) / 2.0
        a, b, rows = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel(), np.repeat(rows, 2)
        value, error = panels(a, b, rows)
        bisect = error > tol[rows]
    for (value, error, bisect), (child_value, child_error, _) in zip(levels[-2::-1], levels[:0:-1]):
        value[bisect] = child_value[0::2] + child_value[1::2]
        error[bisect] = child_error[0::2] + child_error[1::2]
    value, error, _ = levels[0]
    return IntegralResult(_row_sums(value, panel_rows, n_rows), _row_sums(error, panel_rows, n_rows))


def _row_sums(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-row sums of panel values; ``rows`` is sorted, so each row adds its panels in column order."""
    return np.bincount(rows, weights=values, minlength=n_rows)


def tail_cutoff(decay_rate: float, poly_degree: float, start: float) -> float:
    """Truncation point T for integrands bounded by t^m e^(-c t), t >= start.

    Chosen so the analytic tail bound beyond T falls below BATCH_REL_TOL/10
    of the integrand's peak scale.
    """
    if decay_rate <= 0.0:
        raise DomainError(f"decay rate must be positive, got {decay_rate!r}")
    c, m = decay_rate, max(poly_degree, 0.0)
    t_peak = max(m / c, start)
    log_peak = (m * math.log(t_peak) if t_peak > 0.0 else 0.0) - c * t_peak
    log_target = log_peak + math.log(BATCH_REL_TOL / 10.0)
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


def log_piecewise_integral(ys, gs) -> float:
    """log of the integral of exp(piecewise-linear g) over the grid ``ys``.

    Each panel's integral is exact for the linear interpolant of g, all
    panels at once: e^max(g) (1 - e^-|g2 - g1|) / |slope|, with expm1 so
    that a nearly flat panel does not cancel (its width times e^max(g) when
    g is flat to 1e-12 over it).  Their logs are then summed shifted by the
    largest.  A panel of zero width, or one where g is -inf at either end,
    adds nothing.
    """
    ys, gs = np.asarray(ys, dtype=float), np.asarray(gs, dtype=float)
    h, g1, g2 = np.diff(ys), gs[:-1], gs[1:]
    m = np.maximum(g1, g2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rise = np.abs(g2 - g1)
        # a zero-width panel or a -inf end leaves val 0 or nan, which the mask drops
        val = np.where(rise < 1e-12, h, -np.expm1(-rise) / (rise / h))
        logs = np.where(val > 0.0, m + np.log(val), -np.inf)
    top = logs.max(initial=-np.inf)
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(logs - top).sum()))
