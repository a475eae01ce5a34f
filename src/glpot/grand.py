"""Grand norms, the sharpness ratio functional, and growth-exponent fits.

The grand norm sup_p |f|_p / psi(p) is evaluated on a base grid plus
geometric refinements toward both interval endpoints, reporting whether the
sup is still climbing at the deepest refinement (suspected infinite).

The sharpness functional needs L_q norms of a potential known only
pointwise.  Those are assembled from tables of ln|u| on log-spaced grids
(near-origin, inner, and far regions), integrating the piecewise log-linear
interpolant exactly in log space, with the grid extended until the
integrand has fallen ~20 decades below its peak and refined until the norm
moves by less than 0.5%.  All three tables come from the scaled evaluators
of potentials.py, the inner one at ln|x|.  A near or far table's
coordinates are one geometric sequence, and the stop rule walks the
lengths a loop adding one doubling at a time would reach; a table that
must grow is evaluated two doubling lengths past the one asked for, in one
batched call, and a side's inner table comes with its near and far tables'
first chunks in one call.  The tables are numpy arrays, and each norm's
integrand q ln|u| +- coordinate and its integral over a table are one
array pass (quadrature.log_piecewise_integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import TestFunction
from .errors import DivergenceError, DomainError, ToleranceError
from .exponents import PotentialParams, sobolev_q
from .norms import _lp_norms, check_lp_convergence, lp_norm
from .potentials import KernelSpec, log_potential_far, log_potential_near
from .psi import PsiFunction
from .quadrature import QuadratureSpec, log_piecewise_integral, logsumexp_pair

_LOG_DECAY_MARGIN = 46.0  # e^-46 ~ 1e-20: contribution cut under the peak
#: PotentialNormEvaluator's first near/far grid ratio and inner point count (each refinement
#: takes the square root of the ratio and doubles the count)
_GRID_RATIO = 1.05
_INNER_POINTS = 96
#: a near/far table's range cap, in y = -ln|x| or t = ln|x|
_RANGE_CAP = 5.0e4
#: doubling lengths past the one its stop rule asks for that a growing table is evaluated to
_LOOKAHEAD = 2


@dataclass(frozen=True)
class FitResult:
    """Least-squares line in log-log coordinates; the residual is never hidden."""

    slope: float
    intercept: float
    max_residual: float


def fit_growth_exponent(xs, ys) -> FitResult:
    """Least-squares slope of ln y against ln x."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(set(xs)) < 3:
        raise DomainError("growth fit needs at least 3 distinct abscissae")
    if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
        raise DomainError("growth fit needs positive data")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept))
    return FitResult(float(slope), float(intercept), float(np.max(resid)))


# ---------------------------------------------------------------------------
# grand norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrandNormReport:
    """Grid supremum of |f|_p / psi(p) with endpoint diagnostics."""

    value: float
    argmax_p: float
    grid: tuple[float, ...]
    left_unbounded_suspected: bool
    right_unbounded_suspected: bool
    divergent_points: tuple[float, ...]
    inaccurate_points: tuple[float, ...]


def _grand_grid(a: float, b: float, base: int = 64, depth: int = 30) -> tuple[list[float], list[float], list[float]]:
    """(base+interior, left refinement by depth, right refinement by depth)."""
    if b != math.inf:
        length = b - a
        interior = [a + length * (i + 0.5) / base for i in range(base)]
        left = [a + length * 2.0**-k for k in range(2, depth + 1)]
        right = [b - length * 2.0**-k for k in range(2, depth + 1)]
    else:
        interior = [a + 2.0 ** (i / 4.0) for i in range(base)]
        left = [a + 2.0**-k for k in range(2, depth + 1)]
        right = [a + 2.0**k for k in range(5, depth + 1)]
    return interior, left, right


def grand_norm(f: TestFunction, psi: PsiFunction, spec: QuadratureSpec | None = None) -> GrandNormReport:
    """sup over a refined p-grid of |f|_p / psi(p).

    The norms of the whole grid are one batched computation, each the same,
    bit for bit, as lp_norm at that p.  Divergent grid points, and points
    whose norm misses the quadrature tolerance, are excluded and recorded.
    An endpoint flag is set when the ratio still climbs by more than 1%
    between the last two refinement levels, or the last one is unreachable
    (the sup is then suspected infinite at that endpoint).
    """
    spec = spec or QuadratureSpec()
    interior, left, right = _grand_grid(psi.a, psi.b)
    grid_all = interior + left + right
    divergent: list[float] = []
    convergent: list[float] = []
    for p in dict.fromkeys(grid_all):
        if not psi.contains(p) or p < 1.0:
            continue
        try:
            check_lp_convergence(f, p)
            convergent.append(p)
        except DivergenceError:
            divergent.append(p)
    values, rels = _lp_norms(f, np.array(convergent)) if convergent else ((), ())
    inaccurate = [p for p, rel in zip(convergent, rels) if not rel <= spec.rel_tol]
    ratios = {p: float(value) / psi(p) for p, value, rel in zip(convergent, values, rels) if rel <= spec.rel_tol}

    best, best_p = -math.inf, math.nan
    for p in grid_all:
        val = ratios.get(p)
        if val is not None and val > best:
            best, best_p = val, p

    def climbing(seq: list[float]) -> bool:
        if not seq:
            return False
        if seq[-1] not in ratios:
            return True  # the endpoint is unreachable: |f|_p diverges there
        vals = [ratios[p] for p in seq if p in ratios]
        if len(vals) < 2:
            return False
        return vals[-1] > vals[-2] * 1.01

    return GrandNormReport(
        value=best,
        argmax_p=best_p,
        grid=tuple(sorted(set(grid_all))),
        left_unbounded_suspected=climbing(left),
        right_unbounded_suspected=climbing(right),
        divergent_points=tuple(divergent),
        inaccurate_points=tuple(inaccurate),
    )


# ---------------------------------------------------------------------------
# tabulated potential norms
# ---------------------------------------------------------------------------


class _GrownTable:
    """One side's near (y = -ln|x|) or far (t = ln|x|) table, its ln u evaluated in chunks.

    The coordinates are one geometric sequence, c_0 = first and
    c_(k+1) = c_k * ratio.  ``lengths`` are the table lengths of the
    doubling loop: through the first point >= start, then each time through
    the first point >= twice the last one, up to the first length whose
    last point reaches the range cap.  ``grown`` indexes the length the
    stop rule has reached, and ``vals`` holds ln u at a prefix of the
    coordinates.  A point's value does not depend on the chunk it was
    evaluated in, so each length's table is, bit for bit, the one a loop
    evaluating one doubling per call would build.
    """

    def __init__(self, first: float, ratio: float, start: float):
        coords = [first]
        while coords[-1] < start:
            coords.append(coords[-1] * ratio)
        self.lengths = [len(coords)]
        while coords[-1] < _RANGE_CAP:
            end = 2.0 * coords[-1]
            while coords[-1] < end:
                coords.append(coords[-1] * ratio)
            self.lengths.append(len(coords))
        self.coords = np.array(coords)
        self.vals = np.empty(0)
        self.grown = 0

    def pending(self) -> np.ndarray:
        """Coordinates to evaluate before the grown length is usable: through _LOOKAHEAD lengths past it, or none."""
        have = len(self.vals)
        if have >= self.lengths[self.grown]:
            return self.coords[have:have]
        return self.coords[have : self.lengths[min(self.grown + _LOOKAHEAD, len(self.lengths) - 1)]]

    def append(self, vals: np.ndarray) -> None:
        self.vals = np.concatenate([self.vals, vals])


class PotentialNormEvaluator:
    """L_q norms of kernel*f from log-space tables of the potential.

    Regions: near (|x| <= 1/e, coordinate y = -ln|x|), inner
    (1/e <= |x| <= x0, coordinate x), far (|x| >= x0, coordinate t = ln|x|).
    Tables grow on demand until the transformed integrand of each requested
    q has dropped `_LOG_DECAY_MARGIN` below its peak, starting from the
    grid ratio `_GRID_RATIO` and `_INNER_POINTS` inner points.  A near or
    far table grows by doublings of its coordinate range (see
    :class:`_GrownTable`), and a growing table is evaluated `_LOOKAHEAD`
    doublings ahead, so the tables of several q, or of one q that needs a
    long table, come from a few scaled calls.  ``spec`` is not read: the
    scaled evaluators that fill the tables work to their own fixed accuracy.
    """

    def __init__(self, f: TestFunction, kernel: KernelSpec, spec: QuadratureSpec | None = None):
        self.f = f
        self.kernel = kernel
        self.ratio = _GRID_RATIO
        radius = kernel.radius or 0.0
        self.x0 = max(math.exp(1.5), 1.5 * (radius + f.support_bound))
        self.t0 = math.log(self.x0)
        self._near: dict[float, _GrownTable] = {}
        self._far: dict[float, _GrownTable] = {}
        self._inner: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._inner_n = _INNER_POINTS

    # -- tables -------------------------------------------------------------

    def _table(self, side: float, near: bool) -> _GrownTable:
        tables = self._near if near else self._far
        if side not in tables:
            first, start = (1.0, 40.0) if near else (self.t0, self.t0 + 30.0)
            tables[side] = _GrownTable(first, self.ratio, start)
        return tables[side]

    def _inner_coords(self) -> np.ndarray:
        """The inner table's |x|: geometric on (1/e, x0), plus the support's edges (shifted by a truncation radius)."""
        lo, hi = math.exp(-1.0), self.x0
        shifts = (0.0,) if self.kernel.radius is None else (0.0, self.kernel.radius, -self.kernel.radius)
        ends = [abs(v) for piece in self.f.pieces for v in (piece.lo, piece.hi) if math.isfinite(v)]
        edges = {end + shift for end in ends for shift in shifts if lo < end + shift < hi}
        return np.array(sorted(set(np.geomspace(lo, hi, self._inner_n)) | edges))

    def _evaluate_side(self, side: float) -> None:
        """One side's inner table, with its near and far tables' pending first chunks, in one scaled call."""
        if side in self._inner:
            return
        near, far = self._table(side, True), self._table(side, False)
        ys, xs, ts = near.pending(), self._inner_coords(), far.pending()
        vals = log_potential_far(self.f, self.kernel, np.concatenate([-ys, np.log(xs), ts]), side)
        near_end, inner_end = len(ys), len(ys) + len(xs)
        near.append(vals[:near_end])
        self._inner[side] = (xs, vals[near_end:inner_end])
        far.append(vals[inner_end:])

    # -- assembly -------------------------------------------------------------

    def _grown_log_integral(
        self, side: float, q: float, near: bool, stride: int = 1
    ) -> float:
        """log integral over one near/far table, walking its doubling lengths until covered."""
        table = self._table(side, near)
        evaluate = log_potential_near if near else log_potential_far
        while True:
            new = table.pending()
            if len(new):
                table.append(evaluate(self.f, self.kernel, new, side))
            n = table.lengths[table.grown]
            coords = table.coords[:n]
            g = q * table.vals[:n] + (-coords if near else coords)
            g_max = g.max()
            if g_max == -math.inf:
                return -math.inf
            if g[-1] <= g_max - _LOG_DECAY_MARGIN and g[-1] <= g[-2] <= g[-3]:
                break
            if coords[-1] >= _RANGE_CAP:
                if g[-1] >= g_max - 1.0:
                    raise DivergenceError(
                        f"q-norm of the potential of {self.f.label} appears divergent at q={q:.17g}"
                    )
                raise ToleranceError(
                    f"potential table for {self.f.label} exceeded its range cap", achieved=math.inf
                )
            table.grown += 1
        return _strided_log_integral(coords, g, stride)

    def _inner_log_integral(self, side: float, q: float, stride: int = 1) -> float:
        xs, vals = self._inner[side]
        return _strided_log_integral(xs, q * vals, stride)

    def _log_qnorm_power(self, q: float, stride: int = 1) -> float:
        total = -math.inf
        for side in (1.0, -1.0):
            self._evaluate_side(side)
            total = logsumexp_pair(total, self._grown_log_integral(side, q, near=True, stride=stride))
            total = logsumexp_pair(total, self._inner_log_integral(side, q, stride=stride))
            total = logsumexp_pair(total, self._grown_log_integral(side, q, near=False, stride=stride))
        return total

    def _refine(self) -> None:
        self.ratio = math.sqrt(self.ratio)
        self._inner_n *= 2
        self._near.clear()
        self._far.clear()
        self._inner.clear()

    def log_qnorm(self, q: float) -> float:
        """ln |kernel*f|_q over the full line (ln of the norm, not its q-th power).

        The fine-versus-coarse (double spacing) comparison bounds the
        interpolation error; grids are rebuilt denser until the norm moves
        by less than 0.5%.
        """
        if q < 1.0:
            raise DomainError(f"q must be >= 1, got {q}")
        achieved = math.inf
        for _ in range(3):
            fine = self._log_qnorm_power(q)
            if fine == -math.inf:
                raise DivergenceError(f"potential of {self.f.label} vanishes identically")
            coarse = self._log_qnorm_power(q, stride=2)
            achieved = abs(fine - coarse) / q
            if achieved <= 0.005:
                return fine / q
            self._refine()
        raise ToleranceError(
            f"tabulated q-norm for {self.f.label} did not stabilise at q={q:.17g}", achieved=achieved
        )

    def qnorm(self, q: float) -> float:
        return math.exp(self.log_qnorm(q))

    def restricted_log_qnorm(self, q: float, side: float) -> float:
        """ln of the norm restricted to one near region (|x| <= 1/e, one sign)."""
        return self._grown_log_integral(side, q, near=True) / q


def _strided_log_integral(coords: np.ndarray, g: np.ndarray, stride: int) -> float:
    """log_piecewise_integral over every stride-th point of the grid, its last point kept."""
    keep = np.arange(0, len(coords), stride)
    if keep[-1] != len(coords) - 1:
        keep = np.append(keep, len(coords) - 1)
    return log_piecewise_integral(coords[keep], g[keep])


# ---------------------------------------------------------------------------
# the sharpness ratio functional
# ---------------------------------------------------------------------------


def v_functional(
    f: TestFunction,
    p: float,
    alpha: float,
    spec: QuadratureSpec | None = None,
    evaluator: Optional[PotentialNormEvaluator] = None,
) -> float:
    """|I f|_q [(p-1)(1/alpha-p)]^(1-alpha) / |f|_p for d = 1, q the image exponent.

    The potential norm comes from a :class:`PotentialNormEvaluator`, which can
    be passed in to share tables across p values.
    """
    params = PotentialParams(1, alpha)
    q = sobolev_q(p, params)  # also validates p
    spec = spec or QuadratureSpec()
    f_norm = lp_norm(f, p, spec)
    if not f_norm > 0.0:
        raise DomainError(f"{f.label} has zero norm")
    ev = evaluator or PotentialNormEvaluator(f, KernelSpec.riesz(alpha), spec)
    log_u = ev.log_qnorm(q)
    shape = ((p - 1.0) * (1.0 / alpha - p)) ** (1.0 - alpha)
    return math.exp(log_u + math.log(shape) - math.log(f_norm))
