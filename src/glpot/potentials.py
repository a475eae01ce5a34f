"""Numerical evaluation (d = 1) of potential-type convolution operators.

Covers the fractional-integral kernel |z|^(alpha-1), its log and slowly
varying generalisations, the ball-truncated variants, the exponentially
decaying smoothed kernel built from the Macdonald function, and the
Hardy-Littlewood / fractional maximal operators.  Pointwise evaluation
splits the integration domain at the kernel singularity and at the
density's singularity at 0, and integrates every sub-piece as one row of a
single call of the batched Gauss-Legendre rule, its integrand evaluated on
arrays: an exponential substitution at the kernel end, |x - y| = W e^(-t/s),
ln|y| on a piece ending at (or cut just short of) a density singularity at
the origin and ln|x - y| elsewhere, tails included, with the density and
the Jacobian formed in logs.

For the extreme arguments the sharpness experiments need (|x| from e^-12000
to e^12000 and beyond), the scaled evaluators return ln u(+-e^t) and
ln u(+-e^-y) directly for every catalog density under the power-kernel
family.  One region table per piece serves both sides and both regions, and
every region is summed in logs, so no intermediate quantity under- or
overflows.  A tail whose potential diverges raises DivergenceError.  They
take a whole array of t or y: each region is one call of the batched
Gauss-Legendre rule (:func:`~glpot.quadrature.integrate_batch`) over every
point it covers, and a point's value does not depend, to the bit, on the
other points of the call.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import gammaincc, kve

from .catalog import Piece, TestFunction
from .errors import DivergenceError, DomainError, ToleranceError
from .psi import SlowlyVarying
from .quadrature import (
    MAX_DEPTH,
    MAX_ROW_PANELS,
    IntegralResult,
    QuadratureSpec,
    integrate_batch,
    integrate_decaying,
    integrate_panel,
    tail_cutoff,
)

#: beyond this separation the exponentially decaying kernel underflows
BESSEL_REACH = 700.0
#: the potential where no part of the support lies within the kernel's reach, one shared result
_NOTHING_IN_REACH = IntegralResult(0.0, 0.0)
_EPS = sys.float_info.epsilon
#: width in t of the panel whose mean gives the integrand at a row end, in :func:`apply_kernel_report`
_END_PANEL = 1e-3
#: rounding floor of :func:`apply_kernel_report`'s relative error
_ROUNDING = 64 * _EPS
#: bound on the relative error of :func:`macdonald_K` on (0, BESSEL_REACH], nu in [0, 5]
MACDONALD_REL_ERR = 5e-13


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Convolution kernel: variant in {'riesz', 'log_riesz', 'truncated', 'bessel'}.

    All variants share the local behaviour |z|^(alpha-1) near z = 0; the log
    variants multiply by |ln|z||^beta S(|ln|z||), the truncated variant
    restricts to |z| < radius, and 'bessel' uses the Macdonald-function
    kernel with exponential decay.  ``slow`` is None unless the slow factor
    varies: a constant one is dropped at construction.
    """

    variant: str
    alpha: float
    beta: float = 0.0
    slow: Optional[SlowlyVarying] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.slow is not None and self.slow.is_constant:
            object.__setattr__(self, "slow", None)  # consumers test ``slow is not None`` only
        if self.variant not in ("riesz", "log_riesz", "truncated", "bessel"):
            raise DomainError(f"unknown kernel variant {self.variant!r}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"kernel order must be in (0,1) for d=1, got {self.alpha}")
        if self.beta < 0.0:
            raise DomainError(f"log order must be >= 0, got {self.beta}")
        if self.variant == "truncated":
            if self.radius is None or not self.radius > 0.0:
                raise DomainError("truncated kernel needs a positive radius")
        elif self.radius is not None:
            raise DomainError("only the truncated variant takes a radius")

    @staticmethod
    def riesz(alpha: float) -> "KernelSpec":
        return KernelSpec("riesz", alpha)

    @staticmethod
    def log_riesz(alpha: float, beta: float, slow: Optional[SlowlyVarying] = None) -> "KernelSpec":
        return KernelSpec("log_riesz", alpha, beta, slow)

    @staticmethod
    def truncated(
        alpha: float,
        beta: float = 0.0,
        slow: Optional[SlowlyVarying] = None,
        radius: float = 1.0,
    ) -> "KernelSpec":
        return KernelSpec("truncated", alpha, beta, slow, radius)

    @staticmethod
    def bessel(alpha: float) -> "KernelSpec":
        return KernelSpec("bessel", alpha)

    @property
    def reach(self) -> float:
        if self.variant == "truncated":
            return self.radius
        if self.variant == "bessel":
            return BESSEL_REACH
        return math.inf

    @property
    def rel_err(self) -> float:
        """Relative error of one kernel value beyond rounding (QUADPACK does not see it)."""
        return MACDONALD_REL_ERR if self.variant == "bessel" else 0.0

    @property
    def has_log_factor(self) -> bool:
        return self.variant in ("log_riesz", "truncated") and (self.beta > 0.0 or self.slow is not None)

    def regular_part(self, ln_abs_z) -> np.ndarray:
        """K(z) |z|^(1-alpha) elementwise, given ln|z|; K is |z|^(alpha-1) times it.

        Bounded at z = 0.  The log variants give |ln|z||^beta S(|ln|z||), 0
        past |z| = radius when truncated (|z| = radius rounds in); 'bessel'
        gives |z|^nu K_nu(|z|) = |z|^nu kve(nu, |z|) e^-|z|, nu = (1-alpha)/2,
        which tends to 2^(nu-1) Gamma(nu) at z = 0.
        """
        ln_abs_z = np.asarray(ln_abs_z, dtype=float)
        if self.variant == "bessel":
            nu = (1.0 - self.alpha) / 2.0
            z = np.maximum(np.exp(ln_abs_z), 1e-300)  # |z|^nu K_nu(|z|) is at its limit there
            return z**nu * kve(nu, z) * np.exp(-z)
        part = np.ones(ln_abs_z.shape)
        if self.has_log_factor:
            part = _log_factor(np.abs(ln_abs_z), self.beta, self.slow)
        if self.variant == "truncated":
            part = np.where(ln_abs_z <= math.log(self.radius), part, 0.0)
        return part


def parse_kernel_spec(text: str) -> KernelSpec:
    """Parse 'riesz:0.5', 'log_riesz:0.5,1[,kappa]', 'truncated:0.5,0,1[,kappa]', 'bessel:0.5'."""
    name, _, args = text.partition(":")
    try:
        vals = [float(v) for v in args.split(",")] if args else []
    except ValueError as exc:
        raise DomainError(f"malformed kernel spec {text!r}") from exc
    if name == "riesz" and len(vals) == 1:
        return KernelSpec.riesz(vals[0])
    if name == "log_riesz" and len(vals) in (2, 3):
        slow = SlowlyVarying.log_power(vals[2]) if len(vals) == 3 else None
        return KernelSpec.log_riesz(vals[0], vals[1], slow)
    if name == "truncated" and len(vals) in (3, 4):
        slow = SlowlyVarying.log_power(vals[3]) if len(vals) == 4 else None
        return KernelSpec.truncated(vals[0], vals[1], slow, vals[2])
    if name == "bessel" and len(vals) == 1:
        return KernelSpec.bessel(vals[0])
    raise DomainError(f"unknown kernel spec {text!r}")


# ---------------------------------------------------------------------------
# Macdonald function
# ---------------------------------------------------------------------------


def macdonald_K(nu: float, x: float) -> float:
    """Modified Bessel function of the third kind K_nu(x), x > 0, nu >= 0.

    Evaluated as kve(nu, x) e^(-x) with scipy's exponentially scaled AMOS
    routine (Amos 1986, ACM TOMS 644).  The relative error stays below
    MACDONALD_REL_ERR for x in [1e-12, 700], nu in [0, 5]; the worst seen
    against mpmath is 1.7e-13, just below x = 2 where AMOS leaves its series.
    Scaling keeps the value normal up to x = 700, whereas the unscaled kv
    underflows to 0.0 from x ~ 697.5.  For x > 700 the result underflows
    and is reported as 0.0 with a warning.
    """
    if x <= 0.0:
        raise DomainError(f"argument must be positive, got {x}")
    if nu < 0.0:
        raise DomainError(f"order must be >= 0, got {nu}")
    if x > BESSEL_REACH:
        warnings.warn(f"K_{nu:g}({x:g}) underflows; reporting 0.0", RuntimeWarning, stacklevel=2)
        return 0.0
    return float(kve(nu, x)) * math.exp(-x)


# ---------------------------------------------------------------------------
# pointwise operator evaluation
# ---------------------------------------------------------------------------


def _check_apply_convergence(f: TestFunction, x: float, kernel: KernelSpec) -> None:
    for piece in f.pieces:
        if piece.role == "tail" and kernel.reach == math.inf:
            # f(y) K(x-y) ~ |y|^(-power+alpha-1) at infinity, up to log orders
            if piece.power <= kernel.alpha:
                raise DivergenceError(
                    f"potential of {f.label} diverges at the tail: decay {piece.power:g} <= alpha={kernel.alpha:g}"
                )
    if x == 0.0 and f.origin_exponents[0] >= kernel.alpha:
        raise DivergenceError(
            f"potential of {f.label} diverges at x=0: combined exponent "
            f"{f.origin_exponents[0] + 1.0 - kernel.alpha:g} >= 1"
        )


def _tail_decay_hint(f: TestFunction, left: bool, kernel: KernelSpec) -> tuple[Optional[float], float]:
    for piece in f.pieces:
        if piece.role != "tail":
            continue
        if (piece.lo == -math.inf) == left:
            rate = piece.power - kernel.alpha
            return (rate if rate > 0.0 else None), piece.log_power + kernel.beta
    return None, 0.0


def _subpieces(f: TestFunction, x: float, kernel: KernelSpec):
    """The pieces (lo, hi) of the support within the kernel's reach of x, cut at x, at the density's
    singularity at 0 and, for a log kernel, at x -+ 1; none touches both x and the density singularity."""
    sing_locs = [0.0] if f.origin_exponents != (0.0, 0.0) else []
    reach = kernel.reach
    for piece in f.pieces:
        lo = max(piece.lo, x - reach) if reach != math.inf else piece.lo
        hi = min(piece.hi, x + reach) if reach != math.inf else piece.hi
        if not hi > lo:
            continue
        cuts = {lo, hi}
        if lo < x < hi:
            cuts.add(x)
        for loc in sing_locs:
            if lo < loc < hi:
                cuts.add(loc)
        if kernel.has_log_factor:
            for edge in (x - 1.0, x + 1.0):
                if lo < edge < hi:
                    cuts.add(edge)
        ordered = sorted(cuts)
        for c1, c2 in zip(ordered[:-1], ordered[1:]):
            # keep the kernel-singular piece finite, and never let a single
            # piece touch both the kernel and a density singularity
            if c1 == x and c2 == math.inf:
                w = max(1.0, 2.0 * abs(x))
                yield from ((x, x + w), (x + w, math.inf))
            elif c2 == x and c1 == -math.inf:
                w = max(1.0, 2.0 * abs(x))
                yield from ((-math.inf, x - w), (x - w, x))
            elif (c1 == x and c2 in sing_locs) or (c2 == x and c1 in sing_locs):
                mid = c1 + 0.5 * (c2 - c1)
                yield from ((c1, mid), (mid, c2))
            elif (c1 in sing_locs or c2 in sing_locs) and abs(x - (c2 if c1 in sing_locs else c1)) < c2 - c1 < math.inf:
                # x just past the end away from a density singularity: the kernel gets its own piece
                mid = c1 + 0.5 * (c2 - c1)
                yield from ((c1, mid), (mid, c2))
            else:
                yield c1, c2


def _doubling_edges(t_lo: float, t_hi: float, width: float) -> list[float]:
    """Panel edges from t_lo to t_hi, the panels width, 2 width, 4 width, ... wide; the last one takes the rest."""
    edges, k = [t_lo], 1
    while t_lo + width * (2.0 ** (k + 1) - 1.0) < t_hi:
        edges.append(t_lo + width * (2.0**k - 1.0))
        k += 1
    return edges + [t_hi]


class _RowParams(NamedTuple):
    """How one row of :func:`apply_kernel_report` maps t to y and forms its integrand (see :func:`_row`)."""

    v0: float
    v1: float
    sign: float
    base: float
    ky: float
    kd: float
    delta: float
    origin: bool
    singular: bool
    unit: bool
    v_end: float
    c: float


def _row(f: TestFunction, x: float, kernel: KernelSpec, lo: float, hi: float) -> Optional[tuple]:
    """One sub-piece as a row of the batched rule: (_RowParams, panel edges, rate), or None where f is 0.

    Over t the row maps v = v0 + v1 t to y: on an origin row v = ln|y|, y = sign e^v; on every
    other row v = ln|x - y|, y = x + sign e^v.  Its integrand f(y) K(x - y) |dy/dt| is
    e^(base + ky ln|y| + kd ln|x - y|) times the kernel's regular part and the density's log
    factor |ln|y||^delta S (the slow factor on singular pieces only).  The panels double from
    the end where the integrand is largest.  A row with a rate is cut where the tail rule drops
    the rest, past which it decays like e^(-rate t) times a power of t; rate is nan on a row
    that is not cut.
    """
    base, power, delta, singular = 0.0, 0.0, 0.0, False
    if f.evaluator is None:
        piece = next((p for p in f.pieces if p.lo <= lo and hi <= p.hi), None)
        if piece is None:
            return None
        base, singular = math.log(f.coefficient), piece.role != "plain"
        if singular:
            power, delta = piece.power, piece.log_power
    origin, v0, v1, rate = False, 0.0, 1.0, math.nan
    # start: where the integrand has settled into the decay the tail rule cuts
    if lo == x or hi == x:
        # kernel end: |x - y| = u = W e^(-t/s), so u^(s-1) du = W^s e^-t dt / s over t > 0; the rest of the
        # integrand is settled where u is below 1 and below the distance to the density's singularity at 0
        extra, extra_log = f.origin_exponents if x == 0.0 else (0.0, 0.0)  # x may sit on it
        s = kernel.alpha - extra
        sign, v0, v1, t_lo, base = (1.0 if lo == x else -1.0), math.log(hi - lo), -1.0 / s, 0.0, base - math.log(s)
        near = [abs(x)] if x != 0.0 and f.origin_exponents != (0.0, 0.0) else []
        rate, degree, start = 1.0, kernel.beta + extra_log, s * max(0.0, v0 - math.log(min([1.0] + near)))
    elif math.isinf(hi - lo):
        # tail: |x - y| = e^t from the finite end on, settled where |x - y| > |x|
        rate, degree = _tail_decay_hint(f, left=lo == -math.inf, kernel=kernel)
        if rate is None:
            raise DomainError(f"potential of {f.label}: an unbounded support piece needs a tail decay hint")
        sign = 1.0 if hi == math.inf else -1.0
        t_lo = math.log(lo - x if sign > 0.0 else x - hi)
        start = max(t_lo, math.log(abs(x))) if x != 0.0 else t_lo
    elif (lo == 0.0 or hi == 0.0) and f.origin_exponents[0] > 0.0:
        # density origin end: y = -+e^-t, t from -ln of the far end on, settled where |y| < |x|
        power0, degree = f.origin_exponents
        origin, sign, v1, t_lo, rate = True, (1.0 if lo == 0.0 else -1.0), -1.0, -math.log(max(-lo, hi)), 1.0 - power0
        start = max(t_lo, -math.log(abs(x)))
    elif lo * hi > 0.0 and f.origin_exponents[0] > 0.0 and min(abs(lo), abs(hi)) < min(abs(lo - x), abs(hi - x)):
        # a piece cut short of the density's singularity at 0 (by a kernel's window or kink), nearer 0 than x:
        # y = -+e^-t between its ends, graded toward 0 as the origin end is
        origin, sign, v1, width = True, math.copysign(1.0, hi), -1.0, 1.0
        t_lo, t_hi = -math.log(max(-lo, hi)), -math.log(min(abs(lo), abs(hi)))
    else:
        # a finite piece away from x: |x - y| = e^t; the bessel kernel's e^-|x - y| decays at the rate
        # |x - y| in t, so its panels start that much narrower
        sign = 1.0 if lo > x else -1.0
        t_lo, t_hi = sorted((math.log(abs(lo - x)), math.log(abs(hi - x))))
        width = 1.0 / max(1.0, math.exp(t_lo)) if kernel.variant == "bessel" else 1.0
    if not math.isnan(rate):
        t_hi, width = tail_cutoff(rate, degree, start), 1.0 / max(1.0, rate)
    # |dy/dt| is |y| on an origin row and |x - y| (over s at a kernel end) on the others
    ky, kd = (1.0 - power, kernel.alpha - 1.0) if origin else (-power, kernel.alpha)
    # the log v does not give, ln|x - y| on an origin row and ln|y| on the others, is taken to full
    # relative accuracy where it is 0 at an end, so that a log factor vanishing there is exact:
    # log1p(c expm1(v - v_end)), from |x - y| - 1 or |y| - 1 = c expm1(v - v_end); at a kernel end
    # on |y| = 1, v_end is -inf and |y| - 1 = c e^v
    unit, v_end, c = False, 0.0, 0.0
    density_log = singular and (delta != 0.0 or f.slow is not None)
    for end in (lo, hi):
        if origin and end != 0.0 and kernel.has_log_factor and abs(x - end) == 1.0:
            unit, v_end, c = True, math.log(abs(end)), -math.copysign(1.0, x - end) * sign * abs(end)
        elif not origin and density_log and abs(end) == 1.0:
            d = abs(end - x)
            unit, v_end, c = True, (math.log(d) if d else -math.inf), math.copysign(1.0, end) * sign * (d or 1.0)
    params = _RowParams(v0, v1, sign, base, ky, kd, delta, origin, singular, unit, v_end, c)
    return params, _doubling_edges(t_lo, t_hi, width), rate


def apply_kernel_report(
    f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec | None = None
) -> IntegralResult:
    """Convolution value (kernel * f)(x) with an error estimate.

    Every sub-piece of the support (see :func:`_row`) is one row of one
    :func:`~glpot.quadrature.integrate_batch` call, its integrand evaluated
    on arrays and formed in logs up to its bounded factors.  The reported
    error is the rows' n-against-2n estimates, the bound of each cut tail,
    what the rounding of each row end can move, a rounding floor and the
    kernel's own evaluation error; past ``spec.rel_tol`` of the value it
    raises ToleranceError.
    """
    spec = spec or QuadratureSpec()
    _check_apply_convergence(f, x, kernel)
    rows = [r for lo, hi in _subpieces(f, x, kernel) if hi > lo and (r := _row(f, x, kernel, lo, hi)) is not None]
    if not rows:
        return _NOTHING_IN_REACH
    n = len(rows)
    # each cut row once more, as the single panel (cut, cut + 1/rate): see the tail below
    rows += [(p, [edges[-1], edges[-1] + 1.0 / rate], rate) for p, edges, rate in rows if not math.isnan(rate)]
    n_tails = len(rows) - n
    # and each end of a row that is not a cut, as a panel w wide inward from it: see the end shifts below
    shifts = []
    for p, e, rate in rows[:n]:
        w = min(_END_PANEL, (e[-1] - e[0]) / 2.0)
        for t_end, panel in ((e[0], [e[0], e[0] + w]), (e[-1], [e[-1] - w, e[-1]]))[: 1 + math.isnan(rate)]:
            rows.append((p, panel, math.nan))
            shifts.append((1.0 + abs(t_end) + abs(x) / kernel.reach) / w if w > 0.0 else 0.0)
    n_cols = max(len(edges) for _, edges, _ in rows)
    edges = np.array([e + e[-1:] * (n_cols - len(e)) for _, e, _ in rows])
    params = np.array([p for p, _, _ in rows])
    has_origin = any(p.origin for p, _, _ in rows)
    log_factor, has_unit = any(p.delta for p, _, _ in rows), any(p.unit for p, _, _ in rows)
    slow = f.slow if f.evaluator is None else None
    need_ln_y = log_factor or slow is not None or any(p.ky for p, _, _ in rows)
    density = None if f.evaluator is None else np.vectorize(f, otypes=[float])

    def integrand(r, t):
        v0, v1, sign, base, ky, kd, delta, origin, singular, unit, v_end, c = params[r].T[:, :, None]  # _RowParams
        v = v0 + v1 * t
        exp_v = np.exp(v)
        e = sign * exp_v
        y, ln_y, ln_d = x + e, v, v  # at x = 0, y = sign |x - y|, so ln|y| = ln|x - y| = v
        if x != 0.0 and (has_origin or need_ln_y):
            o = origin > 0.0
            if has_origin:
                y = np.where(o, e, y)
            # the log v does not give: ln|x - y| on an origin row, ln|y| on the others
            other = np.log(np.abs(np.where(o, x - y, y) if has_origin else y))
            if has_unit:
                shift = np.where(v_end == -np.inf, c * exp_v, c * np.expm1(v - v_end))
                other = np.where(unit > 0.0, np.log1p(shift), other)
            ln_y, ln_d = (np.where(o, v, other), np.where(o, other, v)) if has_origin else (other, v)
        val = np.exp(base + ky * ln_y + kd * ln_d) * kernel.regular_part(ln_d)
        if log_factor or slow is not None:
            factor = _log_factor(np.abs(ln_y), delta, slow)
            val *= factor if slow is None else np.where(singular > 0.0, factor, 1.0)
        if density is not None:
            val = val * density(y)
        return val

    try:
        with np.errstate(all="ignore"):  # a node rounded onto a singularity: the sum's check below reports it
            value, error = integrate_batch(integrand, edges[:, :-1], edges[:, 1:])
    except (OverflowError, ZeroDivisionError) as exc:  # a user density evaluated in floats
        raise ToleranceError(
            f"potential at x={x:.17g} not resolved: the density overflowed at a node next to its singularity",
            achieved=math.inf,
        ) from exc
    # past its cut a row decays like g(t) = A t^m e^(-rate t) with rate t > 2m + 2: its tail lies between
    # J, the integral of its extra row, and 2 g(cut) / rate <= 2 J / (1 - 1/e), so J / (1 - 1/e), exact
    # for m = 0, is within itself of the tail
    tail = value[n : n + n_tails].sum() / (1.0 - math.exp(-1.0))
    total = float(value[:n].sum() + tail)
    # a row end sits where rounding put it: its t, the log of a distance, within eps (1 + |t|), and a
    # truncated kernel's window edge x -+ radius within eps |x| in y, so eps |x| / radius in t; the
    # integrand there, its mean over the end's panel, times that shift bounds what the shift moves
    ends = np.abs(value[n + n_tails :]) @ np.array(shifts)
    err = float(error[:n].sum() + tail + _EPS * ends) + (_ROUNDING + kernel.rel_err) * abs(total)
    if not (math.isfinite(total) and math.isfinite(err)):
        raise ToleranceError(f"potential at x={x:.17g} not resolved: value {total}, error {err}", achieved=math.inf)
    if total != 0.0 and err / abs(total) > spec.rel_tol:
        raise ToleranceError(f"potential at x={x:.17g} too inaccurate", achieved=err / abs(total))
    return IntegralResult(total, err)


def apply_kernel(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec | None = None) -> float:
    return apply_kernel_report(f, x, kernel, spec).value


def bessel_potential(f: TestFunction, x: float, alpha: float, spec: QuadratureSpec | None = None) -> float:
    """Convolution with the exponentially decaying smoothed kernel."""
    return apply_kernel(f, x, KernelSpec.bessel(alpha), spec)


# ---------------------------------------------------------------------------
# scaled (log-space) evaluation at extreme arguments
# ---------------------------------------------------------------------------
#
# With x = side e^L and y' = sign(piece) |x| z, a singular piece contributes
# c |x|^(alpha - power) times
#
#     int z^-power D(|L + ln z|) |1 - sigma z|^(alpha-1) W(L + ln|1 - sigma z|) dz,
#
# sigma = +1 when the piece lies on x's side.  D is the density's log factor
# |ln|y'||^delta S(|ln|y'||) (1 for a plain piece, whose power is 0) and W
# the kernel's, clipped to the truncation window.  One region table serves
# every piece.  Away from z = 0 and z = 1 the integral is taken in w = ln z
# on panels of width 1, 8, 64, ... outward from the end next to z = 1, cut
# where w is unbounded at the decaying-tail rule's truncation point.  An
# end with no log factor is one power-substituted panel: the density end
# z -> 0 of a pure power under a kernel without one, and the kernel end
# z -> 1 of such a kernel.  A log factor there is a log singularity in the
# substituted variable, so such an end is integrated in logs instead: the
# density end is the outward region in w run on to w = -inf, and the kernel
# end of a log kernel, |1 - z| = e^top v, takes the same doubling panels in
# tau = -alpha ln v (weight e^-tau), with ln v = -tau/alpha passed to the
# integrand.  A log kernel's factor has a kink at |x - y'| = 1, where
# ln|1 - sigma z| = -L; every region whose range holds it gets a panel edge
# there.  Each region is evaluated for all points at once and returns the
# log of its share of u at each.  Its scale (|x|^(alpha - power), the
# substituted panel's width to its exponent, and e^(k w) at the end where it
# peaks, k w from z^(1-power) below z = 1 and z^(alpha-power) above it) is
# summed in logs through ln|y'| at that end, so nothing under- or overflows
# and no two large logs cancel at any L.

_LN_HALF, _LN_3_2 = math.log(0.5), math.log(1.5)


def _log(v: np.ndarray) -> np.ndarray:
    """ln v elementwise, -inf where v == 0."""
    with np.errstate(divide="ignore"):
        return np.log(v)


def _log_factor(a: np.ndarray, power: float, slow: Optional[SlowlyVarying]) -> np.ndarray:
    """a^power S(a) elementwise (S, when given, is called point by point)."""
    val = a**power
    return val if slow is None else val * np.vectorize(slow, otypes=[float])(a)


def _resolved(result: IntegralResult) -> np.ndarray:
    """The values of an integrate_batch result; ToleranceError if a row is unresolved at a cap."""
    if not np.isfinite(result.error).all():
        raise ToleranceError(
            f"batched quadrature missed its tolerance within {MAX_DEPTH} bisections "
            f"and {MAX_ROW_PANELS} panels per row",
            achieved=math.inf,
        )
    return result.value


def _log_power_panel(rest, exponent: float, v_lo: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale + ln of the integral of v^exponent rest(rows, v) over v in (v_lo, 1), one row per point."""
    s = 1.0 + exponent
    value = _resolved(
        integrate_batch(lambda rows, w: rest(rows, w ** (1.0 / s)) / s, (v_lo**s)[:, None], np.ones((len(v_lo), 1)))
    )
    return scale + _log(value)


def _log_outward(make, k: float, near: np.ndarray, far: np.ndarray, step: float, degree: float,
                 kink: Optional[np.ndarray] = None) -> np.ndarray:
    """ln of the integral over w from near (next to z = 1) outward to far, in direction step.

    Panels of width 1, 8, 64, ... from near and, where e^(k w) peaks at
    far, from far as well, so that the peak never falls in a wide panel;
    one more edge at kink where it lies inside the range (nan: nowhere).
    An infinite far is cut at the decaying-tail rule's truncation point.
    make(anchor, sign) is the integrand in s = sign (w - anchor) >= 0 with
    its log scale, anchored at the end where e^(k w) peaks: the nodes there
    stay exact at any |w|.
    """
    if np.isinf(far).any():
        far = np.where(np.isinf(far), near + step * tail_cutoff(-k * step, degree, 0.0), far)
    length = (far - near) * step
    cuts = [0.0, 1.0]
    while cuts[-1] < length.max():
        cuts.append(8.0 * cuts[-1] + 1.0)
    flip = k * far > k * near
    edges = np.minimum(np.array(cuts), length[:, None])
    edges = np.column_stack([edges, np.where(flip[:, None], length[:, None] - edges, 0.0)])
    if kink is not None:
        at = np.clip(np.nan_to_num((kink - near) * step, nan=0.0), 0.0, length)
        edges = np.column_stack([edges, at])
    edges = np.sort(edges, axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    lo, hi = np.where(flip[:, None], length[:, None] - hi, lo), np.where(flip[:, None], length[:, None] - lo, hi)
    fn, scale = make(np.where(flip, far, near), np.where(flip, -step, step))
    return scale + _log(_resolved(integrate_batch(fn, lo, hi)))


def _log_piece_integral(f: TestFunction, piece: Piece, kernel: KernelSpec, ln_x: np.ndarray, sigma: float,
                        w_lo: np.ndarray, w_hi: np.ndarray) -> np.ndarray:
    """ln of one piece's share c^-1 u at each ln_x, whose range in w = ln z is (w_lo, w_hi)."""
    alpha, power, delta = kernel.alpha, piece.power, piece.log_power
    am1, k_low, k_up = alpha - 1.0, 1.0 - power, alpha - power
    dens = piece.role != "plain" and (delta != 0.0 or f.slow is not None)
    kernel_log = kernel.has_log_factor
    total = np.full(ln_x.shape, -np.inf)

    def region(at, log_part, *arrays):
        """Add log_part(*arrays restricted to the points at, None passed as it is) into total at those points."""
        idx = np.flatnonzero(at)
        if len(idx):
            total[idx] = np.logaddexp(total[idx], log_part(*(a if a is None else a[idx] for a in arrays)))

    # the truncation window |1 - sigma z| < e^r; the kernel end keeps the unclipped range
    r = math.log(kernel.reach) - ln_x
    s_lo, s_hi = w_lo, w_hi
    if sigma > 0.0:
        w_hi = np.minimum(w_hi, np.logaddexp(0.0, r))
        with np.errstate(divide="ignore"):  # r >= 0: a branch np.where discards
            w_lo = np.where(r < 0.0, np.maximum(w_lo, np.log1p(-np.exp(np.minimum(r, 0.0)))), w_lo)
    else:
        live = r > 0.0
        with np.errstate(all="ignore"):  # branches np.where discards
            w_hi = np.where(live, np.minimum(w_hi, r + np.log(-np.expm1(-r))), -np.inf)
        w_lo = np.where(live, w_lo, np.inf)

    if not (dens or kernel_log):
        def density_end(ln_x, w_hi):
            # z = e^top v, weight v^-power; the rest, (1 - sigma z)^(alpha-1), is smooth
            top = np.minimum(_LN_HALF, w_hi)
            e_top = np.exp(top)
            return _log_power_panel(lambda rows, v: (1.0 - sigma * e_top[rows, None] * v) ** am1, -power,
                                    np.zeros(len(ln_x)), am1 * ln_x + k_low * (ln_x + top))

        region(w_lo == -np.inf, density_end, ln_x, w_hi)
        w_lo = np.where(w_lo == -np.inf, _LN_HALF, w_lo)

    def kernel_end(dirn, ln_x, top, ln_v_lo):
        # |1 - z| = e^top v on the side dirn of z = 1, weight v^(alpha-1)
        e_top, lx_top = np.exp(top), ln_x + top
        scale = k_up * ln_x + alpha * top

        def density(rows, ln_z):
            return _log_factor(np.abs(ln_x[rows, None] + ln_z), delta, f.slow) if dens else 1.0

        if not kernel_log:
            def at_one(rows, v):
                ln_z = np.log1p(dirn * e_top[rows, None] * v)
                return np.exp(-power * ln_z) * density(rows, ln_z)

            return _log_power_panel(at_one, am1, np.exp(ln_v_lo), scale)

        def make(anchor, sign):
            # v = e^(-tau/alpha), v^(alpha-1) dv = e^-tau dtau / alpha; anchored at tau = 0
            def at_tau(rows, tau):
                ln_v = -tau / alpha
                ln_z = np.log1p(dirn * np.exp(top[rows, None] + ln_v))
                val = np.exp(-tau - power * ln_z) * density(rows, ln_z)
                return val * _log_factor(np.abs(lx_top[rows, None] + ln_v), kernel.beta, kernel.slow)

            return at_tau, scale - math.log(alpha)

        kink = alpha * lx_top  # tau where |1 - z| = e^-L
        return _log_outward(make, -1.0, np.zeros(len(ln_x)), -alpha * ln_v_lo, 1.0, kernel.beta, kink)

    if sigma > 0.0:
        ends = []
        with np.errstate(all="ignore"):  # branches and rows the masks discard
            for dirn, covered, edge, u_lo in (
                (-1.0, (s_lo < 0.0) & (s_hi > _LN_HALF), np.where(s_lo > _LN_HALF, np.log(-np.expm1(s_lo)), 0.0),
                 np.where(s_hi < 0.0, -np.expm1(s_hi), 0.0)),
                (1.0, (s_hi > 0.0) & (s_lo < _LN_3_2), np.where(s_hi < _LN_3_2, np.log(np.expm1(s_hi)), 0.0),
                 np.where(s_lo > 0.0, np.expm1(s_lo), 0.0)),
            ):
                top = np.minimum(np.minimum(_LN_HALF, r), edge)
                ln_v_lo = np.log(u_lo) - top
                ends.append((dirn, covered & (ln_v_lo < 0.0), top, ln_v_lo))
        for dirn, at, top, ln_v_lo in ends:
            region(at, partial(kernel_end, dirn), ln_x, top, ln_v_lo)

    def make(k, upper, ln_x, anchor, sign):
        lx = ln_x + anchor

        def in_w(rows, s):
            # z^(1-power)|1 - sigma z|^(alpha-1) = e^(k w)(1 - sigma q)^(alpha-1), q = e^-|w|
            step = sign[rows, None] * s
            w, ln_y = anchor[rows, None] + step, lx[rows, None] + step
            q = np.exp(-w) if upper else np.exp(w)
            val = np.exp(k * step) * (1.0 - sigma * q) ** am1
            if dens:
                val *= _log_factor(np.abs(ln_y), delta, f.slow)
            if kernel_log:
                ln_abs = (ln_y if upper else ln_x[rows, None]) + np.log1p(-sigma * q)
                val *= _log_factor(np.abs(ln_abs), kernel.beta, kernel.slow)
            return val

        return in_w, (0.0 if upper else am1 * ln_x) + k * lx

    def outward(k, upper, step, ln_x, near, far, kink):
        return _log_outward(partial(make, k, upper, ln_x), k, near, far, step, delta + kernel.beta, kink)

    kinks = (None, None)
    if kernel_log:  # w where ln|1 - sigma z| = -L, below and above z = 1 (nan where there is none)
        with np.errstate(all="ignore"):  # expm1 overflows where there is no kink
            if sigma > 0.0:
                kinks = np.log(-np.expm1(-ln_x)), np.logaddexp(0.0, -ln_x)
            else:
                kinks = (np.log(-np.expm1(ln_x)) - ln_x,) * 2
    b_lo, b_hi = (_LN_HALF, _LN_3_2) if sigma > 0.0 else (0.0, 0.0)
    for k, upper, near, far, step, kink in (
        (k_low, False, np.minimum(b_lo, w_hi), w_lo, -1.0, kinks[0]),
        (k_up, True, np.maximum(b_hi, w_lo), w_hi, 1.0, kinks[1]),
    ):
        region((far - near) * step > 0.0, partial(outward, k, upper, step), ln_x, near, far, kink)
    return total


def _log_potential(f: TestFunction, kernel: KernelSpec, ln_x, side: float):
    """ln u(side e^ln_x) for a catalog density, summed over its pieces (plain ones split at 0).

    ln_x is a float (float result) or an array (array result); each point's
    value is the same, bit for bit, whatever else is evaluated with it.
    """
    if kernel.variant == "bessel":
        raise DomainError("scaled evaluation is for the power-kernel family")
    if side not in (1.0, -1.0):
        raise DomainError(f"side must be +-1.0, got {side}")
    if f.evaluator is not None:
        raise DomainError(f"no scaled evaluation for {f.label}")
    _check_apply_convergence(f, math.nan, kernel)  # tails only: +-e^L is no finite singularity
    lx = np.atleast_1d(np.asarray(ln_x, dtype=float))
    total = np.full(lx.shape, -np.inf)
    for piece in f.pieces:
        spans = [(piece.lo, 0.0), (0.0, piece.hi)] if piece.lo < 0.0 < piece.hi else [(piece.lo, piece.hi)]
        for lo, hi in spans:
            inner, outer = sorted((abs(lo), abs(hi)))
            ln_inner = math.log(inner) if inner > 0.0 else -math.inf
            ln_i = _log_piece_integral(
                f, piece, kernel, lx, side if hi > 0.0 else -side, ln_inner - lx, math.log(outer) - lx
            )
            total = np.logaddexp(total, ln_i)
    total += math.log(f.coefficient)
    return float(total[0]) if np.ndim(ln_x) == 0 else total


def log_potential_far(f: TestFunction, kernel: KernelSpec, t, side: float):
    """ln of the potential at x = side * e^t, stable at any t (a float or an array of t)."""
    return _log_potential(f, kernel, t, side)


def log_potential_near(f: TestFunction, kernel: KernelSpec, y, side: float):
    """ln of the potential at x = side * e^-y, stable at any y (a float or an array of y)."""
    return _log_potential(f, kernel, -np.asarray(y, dtype=float), side)


# ---------------------------------------------------------------------------
# interval mass and maximal operators
# ---------------------------------------------------------------------------


def interval_mass(f: TestFunction, lo: float, hi: float) -> float:
    """Integral of |f| over (lo, hi); analytic on the catalog pieces where it has a closed form."""
    return float(_interval_masses(f, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))


def _interval_masses(f: TestFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of |f| over (lo, hi), elementwise over arrays of bounds.

    A plain piece is c (b - a).  A singular piece is e^(-c y) y^d dy in
    y = |ln|x||: an upper-gamma difference for c > 0, a polynomial for
    c = 0.  Growth (c < 0), a non-constant slow factor and user densities
    go to QUADPACK at the default ``QuadratureSpec()``, one interval at a time.
    """
    lo, hi = np.broadcast_arrays(lo, hi)
    if f.evaluator is not None:
        return _quadrature_masses(f, lo, hi)
    total = np.zeros(lo.shape)
    for piece in f.pieces:
        a, b = np.maximum(lo, piece.lo), np.minimum(hi, piece.hi)
        inside = b > a
        a, b = a[inside], b[inside]
        if piece.role == "plain":
            total[inside] += f.coefficient * (b - a)
            continue
        c = piece.rate(1.0)
        if c < 0.0 or f.slow is not None:
            # quadrature, except where e^(-c y) y^d grows along an infinite range
            grows = (c < 0.0) & np.isinf(b - a)
            mass = np.full(a.shape, math.inf)
            mass[~grows] = _quadrature_masses(f, a[~grows], b[~grows])
            total[inside] += mass
            continue
        if piece.hi <= 0.0:
            a, b = -b, -a  # mirror onto x > 0
        with np.errstate(divide="ignore"):  # y2 = inf when a = 0
            y1, y2 = (-np.log(b), -np.log(a)) if piece.role == "origin" else (np.log(a), np.log(b))
        d1 = piece.log_power + 1.0
        if c == 0.0:
            total[inside] += f.coefficient * (y2**d1 - y1**d1) / d1
        else:
            q = gammaincc(d1, c * y1) - gammaincc(d1, c * y2)
            total[inside] += f.coefficient * c**-d1 * math.gamma(d1) * q
    return total


def _quadrature_masses(f: TestFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_quadrature_mass`."""
    return np.vectorize(lambda a, b: _quadrature_mass(f, a, b), otypes=[float])(lo, hi)


def _quadrature_mass(f: TestFunction, lo: float, hi: float) -> float:
    """Integral of |f| over (lo, hi) by quadrature, piece by piece (a singularity is a piece end)."""
    total = 0.0
    for piece in f.pieces:
        a, b = max(piece.lo, lo), min(piece.hi, hi)
        if b > a:
            try:
                total += _integrate_abs_singular(f, a, b).value
            except (OverflowError, ZeroDivisionError) as exc:  # a density evaluated in floats, at a pole
                raise ToleranceError(
                    f"mass of {f.label} over ({a:.17g}, {b:.17g}) not resolved: "
                    f"the density raised {type(exc).__name__}: {exc}",
                    achieved=math.inf,
                ) from exc
    return total


def _integrate_abs_singular(f: TestFunction, lo: float, hi: float) -> IntegralResult:
    spec = QuadratureSpec()
    if math.isinf(hi):
        return integrate_decaying(lambda w: abs(f(math.exp(w))) * math.exp(w), math.log(max(lo, 1e-300)), spec)
    if math.isinf(lo):
        return integrate_decaying(lambda w: abs(f(-math.exp(w))) * math.exp(w), math.log(max(-hi, 1e-300)), spec)
    if lo == 0.0:
        return integrate_decaying(lambda w: abs(f(math.exp(-w))) * math.exp(-w), -math.log(hi), spec)
    if hi == 0.0:
        return integrate_decaying(lambda w: abs(f(-math.exp(-w))) * math.exp(-w), -math.log(-lo), spec)
    return integrate_panel(lambda x_: abs(f(x_)), lo, hi, spec)


def _check_locally_integrable(f: TestFunction) -> None:
    if f.origin_exponents[0] >= 1.0:
        raise DivergenceError(f"{f.label} is not locally integrable at 0")


def _maximal_sup(f: TestFunction, xs, weight_exp: float, n_grid: int):
    """sup over radii of r^weight_exp * mass(x-r, x+r) at each x of xs.

    A geometric radius grid, then golden refinement around the grid argmax,
    run in lockstep for all points: one array evaluation of the objective
    per step.  Accuracy ~1e-4 relative (heuristic; the objective is unimodal
    for catalog densities, not provably so in general).  A float x gives a
    float, a 1-D array an array.
    """
    _check_locally_integrable(f)
    x = np.asarray(xs, dtype=float)
    pts = np.atleast_1d(x)
    scale = np.maximum(max(1.0, f.support_bound), np.abs(pts))
    radii = np.geomspace(1e-6 * scale, 1e6 * scale, n_grid, axis=1)

    def objective(r: np.ndarray) -> np.ndarray:
        centre = pts if r.ndim == 1 else pts[:, None]
        return r**weight_exp * _interval_masses(f, centre - r, centre + r)

    vals = objective(radii)
    i = np.argmax(vals, axis=1)
    rows = np.arange(len(pts))
    best = vals[rows, i]
    a_, b_ = radii[rows, np.maximum(i - 1, 0)], radii[rows, np.minimum(i + 1, n_grid - 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c_ = b_ - golden * (b_ - a_)
    d_ = a_ + golden * (b_ - a_)
    fc, fd = objective(c_), objective(d_)
    for _ in range(60):
        # fc > fd: the sup lies in (a, d); d takes c's place and c is probed anew.
        # Otherwise it lies in (c, b); c takes d's place and d is probed anew.
        left = fc > fd
        a_, b_ = np.where(left, a_, c_), np.where(left, d_, b_)
        kept, f_kept = np.where(left, c_, d_), np.where(left, fc, fd)
        probe = np.where(left, b_ - golden * (b_ - a_), a_ + golden * (b_ - a_))
        f_probe = objective(probe)
        c_, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d_, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    sup = np.maximum(best, np.maximum(fc, fd))
    return float(sup[0]) if x.ndim == 0 else sup


def hl_maximal(f: TestFunction, x, n_grid: int = 200):
    """sup over r > 0 of r^-1 * integral of |f| over [x-r, x+r].

    ``x`` is a float (float result) or a 1-D array (array result).
    """
    return _maximal_sup(f, x, -1.0, n_grid)


def fractional_maximal(f: TestFunction, x, alpha: float, n_grid: int = 200):
    """sup over rho > 0 of rho^(alpha-1) * integral of |f| over [x-rho, x+rho].

    ``x`` is a float (float result) or a 1-D array (array result).  This is
    the pointwise function; folding a sup over x is a separate explicit step
    (see :func:`maximal_over_grid`).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    return _maximal_sup(f, x, alpha - 1.0, n_grid)


@dataclass(frozen=True)
class EvalGrid:
    """Ordered evaluation abscissae."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if any(b <= a for a, b in zip(pts[:-1], pts[1:])):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "EvalGrid":
        if n < 2 or not hi > lo:
            raise DomainError("uniform grid needs n >= 2 and lo < hi")
        return EvalGrid(tuple(np.linspace(lo, hi, n)))

    @staticmethod
    def geometric(lo: float, hi: float, n: int) -> "EvalGrid":
        if n < 2 or not 0.0 < lo < hi:
            raise DomainError("geometric grid needs n >= 2 and 0 < lo < hi")
        return EvalGrid(tuple(np.geomspace(lo, hi, n)))


def maximal_over_grid(f: TestFunction, grid: EvalGrid, alpha: Optional[float] = None) -> float:
    """Fold of the pointwise maximal function over a grid (max over points)."""
    points = np.array(grid.points)
    values = hl_maximal(f, points) if alpha is None else fractional_maximal(f, points, alpha)
    return float(np.max(values))
