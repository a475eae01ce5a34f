"""Quadrature helpers for endpoint-singular and decaying integrands.

The splitting and substitution logic (what turns a singular integral into a
sequence of well-behaved panels) lives here and in the callers.  Two rules
integrate the panels.  Scalar integrands, one interval at a time (the masses
of growing pieces and of user densities), go to QUADPACK via
:func:`scipy.integrate.quad`.  Integrands evaluated on arrays (the L_p norms
of every exponent of a request, the scaled potentials behind the
potential-norm tables, and each pointwise potential, one row per sub-piece)
go to :func:`integrate_batch`: composite Gauss-Legendre that compares n and
2n nodes on every panel, the idea behind the Gauss-Kronrod pairs of Piessens
et al., *QUADPACK* (1983), and bisects, all together, only the panels that
miss the tolerance.
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
    """The acceptance tolerance, and the tail rule that goes with it.

    Every public entry point reports ToleranceError for a result whose
    estimated relative error exceeds ``rel_tol``.  The tail rule bounds the
    discarded mass by ``rel_tol/10`` of the integral's scale.
    """

    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise DomainError("tolerances must be positive")

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


#: QUADPACK's absolute tolerance and subdivision limit per panel
_EPS_ABS = 1e-12
_QUAD_LIMIT = 200
#: most doubling panels :func:`integrate_decaying` takes
_DOUBLING_PANELS = 50


def integrate_panel(fn: Callable[[float], float], a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """One adaptive QUADPACK panel on a finite interval."""
    if not b > a:
        return IntegralResult(0.0, 0.0)
    value, err = _quad(fn, a, b, epsabs=_EPS_ABS, epsrel=spec.rel_tol / 10.0, limit=_QUAD_LIMIT)
    return IntegralResult(value, err)


def integrate_decaying(fn: Callable[[float], float], start: float, spec: QuadratureSpec) -> IntegralResult:
    """Integrate fn over (start, infinity) for an eventually-decaying integrand.

    Uses doubling panels of width 1, 2, 4, ...: stops at the third panel or
    later, once a panel contributes less than ``rel_tol/10`` of the running
    total (or 1e-12), and raises ToleranceError past 50 panels.
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

#: accuracy of :func:`integrate_batch`: relative error per integral; its
#: tail_cutoff is where callers end decaying tails
BATCH_SPEC = QuadratureSpec(rel_tol=1e-13)
#: the error estimate compares Gauss-Legendre at _GL_N and 2 _GL_N nodes
_GL_N = 12
#: most times :func:`integrate_batch` bisects a panel
MAX_DEPTH = 50
#: most panels one row of :func:`integrate_batch` may have on one level
MAX_ROW_PANELS = 1024


@functools.cache
def _gauss_legendre_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on (0, 1) of the n- and 2n-point rules, side by side, and their weights."""
    x1, w1 = np.polynomial.legendre.leggauss(_GL_N)
    x2, w2 = np.polynomial.legendre.leggauss(2 * _GL_N)
    return (np.concatenate([x1, x2]) + 1.0) / 2.0, w1 / 2.0, w2 / 2.0


def integrate_batch(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> IntegralResult:
    """Composite Gauss-Legendre for many integrals at once.

    Row i of the (rows, panels) arrays ``lo`` and ``hi`` holds the panels of
    integral i; an empty panel (lo == hi) adds nothing.  ``fn(rows, x)``
    returns the integrand of integral ``rows[j]`` at the nodes ``x[j]``.
    Every panel is integrated at n and 2n nodes, and a panel whose two
    values differ by more than BATCH_SPEC.rel_tol of its integral's first
    estimate is bisected, all such panels together, up to MAX_DEPTH times.
    A row with a panel still unresolved then, or one whose next level would
    have more than MAX_ROW_PANELS panels (a noisy integrand), stops there
    with the error inf; the other rows are unaffected.
    Returns the 2n-node values and the summed differences, one per row.
    A row's result depends on that row alone, bit for bit: not on the
    other rows, their number or their order.
    """
    x, w1, w2 = _gauss_legendre_pair()
    n_rows, n_panels = lo.shape
    panel_rows, panel_cols = np.nonzero(hi != lo)
    a, b, rows = lo[panel_rows, panel_cols], hi[panel_rows, panel_cols], panel_rows
    levels = []  # per depth: (value, error, bisected) of its panels
    tol = None
    for depth in range(MAX_DEPTH + 1):
        width = b - a
        f = fn(rows, a[:, None] + width[:, None] * x)
        coarse = (f[:, :_GL_N] * w1).sum(axis=1) * width
        value = (f[:, _GL_N:] * w2).sum(axis=1) * width
        error = np.abs(value - coarse)
        if tol is None:
            first_sums = _row_sums(value, rows, panel_cols, n_rows, n_panels)
            tol = BATCH_SPEC.rel_tol * np.abs(first_sums)
        bisect = error > tol[rows]
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
    for (value, error, bisect), (child_value, child_error, _) in zip(levels[-2::-1], levels[:0:-1]):
        value[bisect] = child_value[0::2] + child_value[1::2]
        error[bisect] = child_error[0::2] + child_error[1::2]
    value, error, _ = levels[0]
    total = first_sums if len(levels) == 1 else _row_sums(value, panel_rows, panel_cols, n_rows, n_panels)
    return IntegralResult(total, _row_sums(error, panel_rows, panel_cols, n_rows, n_panels))


def _row_sums(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_panels: int) -> np.ndarray:
    """Per-row sums of panel values, added panel by panel in column order."""
    grid = np.zeros((n_rows, n_panels))
    grid[rows, cols] = values
    return np.cumsum(grid, axis=1)[:, -1]


def logsumexp_pair(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; tolerates -inf."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = max(a, b)
    return m + math.log(math.exp(a - m) + math.exp(b - m))


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
