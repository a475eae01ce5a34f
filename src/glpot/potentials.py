"""Numerical evaluation (d = 1) of potential-type convolution operators.

Covers the fractional-integral kernel |z|^(alpha-1), its log and slowly
varying generalisations, the ball-truncated variants, the exponentially
decaying smoothed kernel built from the Macdonald function, and the
Hardy-Littlewood / fractional maximal operators.  Pointwise evaluation
splits the integration domain at the kernel singularity and at the
density's singularity at 0, and integrates every sub-piece as one row of a
single call of the batched Gauss-Kronrod rule, its integrand evaluated on
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
Gauss-Kronrod rule (:func:`~glpot.quadrature.integrate_batch`) over every
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
from .norms import _log_singular_integrals, _piece_converges
from .psi import SlowlyVarying
from .quadrature import (
    MAX_DEPTH,
    MAX_ROW_PANELS,
    IntegralResult,
    QuadratureSpec,
    integrate_batch,
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
#: error in ln u of the scaled evaluators, which the mpmath tests hold them to; they estimate none of their own
SCALED_LN_U_ERR = 1e-12


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
        if not self.beta >= 0.0:
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
        """Relative error of one kernel value beyond rounding, which no quadrature error estimate sees."""
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


def _subpieces(f: TestFunction, x: float, kernel: KernelSpec):
    """The pieces of the support within the kernel's reach of x as (piece, lo, hi), cut at x and, for a log
    kernel, at x -+ 1; none is empty, and none touches both x and the density's singularity at 0."""
    at_zero = f.origin_exponents != (0.0, 0.0)  # a singularity at 0, which is a piece end and never inside one
    reach = kernel.reach
    for piece in f.pieces:
        lo = max(piece.lo, x - reach) if reach != math.inf else piece.lo
        hi = min(piece.hi, x + reach) if reach != math.inf else piece.hi
        if not hi > lo:
            continue
        cuts = {lo, hi}
        if lo < x < hi:
            cuts.add(x)
        if kernel.has_log_factor:
            for edge in (x - 1.0, x + 1.0):
                if lo < edge < hi:
                    cuts.add(edge)
        ordered = sorted(cuts)
        for c1, c2 in zip(ordered[:-1], ordered[1:]):
            # keep the kernel-singular piece finite, and never let a single
            # piece touch both the kernel and a density singularity
            if c1 == x and c2 == math.inf:
                ends = (x, x + max(1.0, 2.0 * abs(x)), math.inf)
            elif c2 == x and c1 == -math.inf:
                ends = (-math.inf, x - max(1.0, 2.0 * abs(x)), x)
            elif at_zero and 0.0 in (c1, c2) and abs(x - (c2 if c1 == 0.0 else c1)) < c2 - c1 < math.inf:
                # x at, or just past, the end away from the density singularity: the kernel gets its own piece
                ends = (c1, c1 + 0.5 * (c2 - c1), c2)
            else:
                ends = (c1, c2)
            # splitting a range one ulp wide, or one reaching past the largest float, leaves an empty part
            yield from ((piece, a, b) for a, b in zip(ends[:-1], ends[1:]) if b > a)


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


def _row(f: TestFunction, x: float, kernel: KernelSpec, piece: Piece, lo: float, hi: float) -> tuple:
    """The sub-piece (lo, hi) of piece as a row of the batched rule: (_RowParams, panel edges, rate).

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
        if piece.role != "tail":
            raise DomainError(f"{f.label}: a plain piece has no decay hint to integrate its unbounded range by")
        rate, degree = piece.power - kernel.alpha, piece.log_power + kernel.beta  # rate > 0: u converges
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
    error is the rows' G20/K41 estimates, the bound of each cut tail,
    what the rounding of each row end can move, a rounding floor and the
    kernel's own evaluation error; past ``spec.rel_tol`` of the value it
    raises ToleranceError.  Two kinds of x leave too few floats for these
    rows: a subnormal x next to a catalog density's singularity at 0, and a
    truncated kernel's window edge x -+ radius that cuts a sliver off the
    support (see :func:`_window_sliver`).  Under a power kernel the value of
    a catalog density there comes from the scaled evaluator (see
    :func:`_scaled_report`); a sliver of any other density is a
    ToleranceError that names it.
    """
    if not math.isfinite(x):
        raise DomainError(f"potential of {f.label}: x must be finite, got {x}")
    spec = spec or QuadratureSpec()
    _check_apply_convergence(f, x, kernel)
    subnormal = 0.0 < abs(x) < sys.float_info.min
    if subnormal and f.origin_exponents != (0.0, 0.0) and f.evaluator is None and kernel.variant != "bessel":
        return _scaled_report(f, x, kernel, spec, "")
    rows = [_row(f, x, kernel, piece, lo, hi) for piece, lo, hi in _subpieces(f, x, kernel)]
    if not rows:  # nothing within reach, unless the window's edge rounded onto an end of the support
        sliver = _window_sliver(f, x, kernel, spec)
        return _NOTHING_IN_REACH if sliver is None else _sliver_report(f, x, kernel, spec, sliver)
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
    finite = math.isfinite(total) and math.isfinite(err)
    if not finite or (total != 0.0 and err / abs(total) > spec.rel_tol):
        sliver = _window_sliver(f, x, kernel, spec)
        if sliver is not None:
            return _sliver_report(f, x, kernel, spec, sliver)
        if not finite:
            raise ToleranceError(f"potential at x={x:.17g} not resolved: value {total}, error {err}", achieved=math.inf)
        raise ToleranceError(f"potential at x={x:.17g} too inaccurate", achieved=err / abs(total))
    return IntegralResult(total, err)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _window_sliver(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec) -> Optional[str]:
    """The sliver a truncated kernel's window (x - radius, x + radius) cuts off a piece, if there is one.

    A sliver lies between a window edge and a piece end inside the window,
    and is narrower than eps (|x| + radius) / rel_tol: what the rounding of
    the edge, eps (|x| + radius), moves of it passes the tolerance.  Its
    width comes from the exact edge, so one the rounding closed is found.
    """
    if kernel.variant != "truncated":
        return None
    widest = _EPS * (abs(x) + kernel.radius) / spec.rel_tol
    for side in (1.0, -1.0):
        edge, below = _two_sum(x, side * kernel.radius)  # the edge is edge + below exactly
        for piece in f.pieces:
            end = piece.lo if side > 0.0 else piece.hi  # the end the window reaches past
            width = side * ((edge - end) + below)
            if 0.0 < width <= widest and side * (end - x) > 0.0:
                return f"the window edge x {'+' if side > 0.0 else '-'} radius cuts a sliver {width:.3g} wide at {end:.17g}"
    return None


def _sliver_report(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec, sliver: str) -> IntegralResult:
    """The potential at x where the window cuts a sliver: from the scaled evaluator for a catalog density."""
    if f.evaluator is not None:
        raise ToleranceError(f"potential at x={x:.17g} not resolved: {sliver}", achieved=math.inf)
    return _scaled_report(f, x, kernel, spec, f": {sliver}")


def _scaled_report(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec, why: str) -> IntegralResult:
    """u(x) of a catalog density under a power kernel from :func:`log_potential_far`, which works in ln|x|.

    Its error is SCALED_LN_U_ERR of it, plus, where e^ln|x| is not |x|, how
    far u moves from there to e^ of the next ln|x| past |x|: next to a
    sliver, u moves by many digits over those few ulps of x.
    """
    ln_x = math.log(abs(x))
    read = float(np.exp(ln_x))  # the |x| the scaled evaluator reads
    lns = [ln_x] if read == abs(x) else [ln_x, math.nextafter(ln_x, math.copysign(math.inf, abs(x) - read))]
    values = np.exp(log_potential_far(f, kernel, np.array(lns), math.copysign(1.0, x)))
    value = float(values[0])
    err = SCALED_LN_U_ERR * value + float(abs(values[-1] - value))
    if err > spec.rel_tol * value:
        raise ToleranceError(f"potential at x={x:.17g} too inaccurate{why}", achieved=err / value if value else math.inf)
    return IntegralResult(value, err)


def apply_kernel(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec | None = None) -> float:
    return apply_kernel_report(f, x, kernel, spec).value


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
# every piece: a kernel end on each side of z = 1 (|1 - z| < 1/2) and an
# outward region below and above it, in w = ln z.  Where the point X = e^L
# is a normal double, every region end is its offset d = |y'| - X, exact as a
# pair, and one double within a factor 2 of X, so in the whole kernel-end
# zone.  Nothing is taken as a difference of two logs: a kernel end's v_lo is
# d_near / d_far, its ln from log1p of their difference over d_near, and its
# panel's width 1 - v_lo^alpha is -expm1(alpha ln v_lo); an outward length is
# log1p of the ends' difference in d over the lower end's |y'|.  A range
# across z = 1/2 or 3/2, however short, splits there like any other.  Past
# the normal doubles the ends are ordered by w; a length between two ends
# that are piece ends or window edges comes from their |y'|, and one to a
# zone boundary, where a finite end of the piece would be subnormal or past
# half the largest double, from the w's.
#
# An outward region is one of two things.  Where it has no log factor (no
# density log power or slow factor, no kernel log factor), e^(k w) does not
# grow outward (a = -k step >= 0, k w from z^(1-power) below z = 1 and
# z^(alpha-power) above it), 1/a is whole (a = 0 included) or the range is
# unbounded and a <= 1/2, and it is longer than one panel and than 1/a (so
# that its width 1 - e^(-a length) in q^a keeps its digits), it is one
# power-substituted panel in q = e^-|w|: its integrand e^(k w)(1 - sigma q)^
# (alpha-1) dw is the incomplete-beta integrand q^(a-1)(1 - sigma q)^(alpha-1)
# dq (DLMF 8.17), which runs down to q = 0 on an unbounded range, so it
# needs no tail cut (at a = 0 the power is 1/q, whose integral is the
# length, and the panel takes the smooth rest).  Every other region takes
# panels of width 1, 8, 64, ... outward from the end next to z = 1 (the
# last one taking a rest under 1/8 of its width), cut where w is unbounded
# at the decaying-tail rule's truncation point: one that grows outward has
# its bump at the near end, which one q-panel's nodes miss; one panel or
# less has its range to the last digits only as a length in w, not as
# e^-length; and a log factor is a log singularity in q.  Where 1/a is not
# whole, q = t^(1/a) leaves a t^(1/a) term that takes bisections at t = 0,
# many where 1/a < 2: they cost less than the doubling panels only on an
# unbounded range, whose doubling run reaches out to ~32/a (g_delta(0) x
# riesz:0.3, a = 0.7, took twice the node values as a q-panel, and
# f_delta(0.9,0)'s finite upper region, a = 0.4, 1.9 times).  The kernel end of
# a kernel without a log factor is one power-substituted panel in |1 - z|;
# that of a log kernel, |1 - z| = e^top v, takes the doubling panels in
# tau = -alpha ln v (weight e^-tau), with ln v = -tau/alpha passed to the
# integrand.  A log kernel's factor has a kink at |x - y'| = 1, where
# ln|1 - sigma z| = -L; every region whose range holds it gets a panel edge
# there.  Each region is evaluated for all points at once and returns the
# log of its share of u at each.  Its scale (|x|^(alpha - power), the
# substituted panel's width to its exponent, and e^(k w) at the end where it
# peaks) is summed in logs through ln|y'| at that end, so nothing under- or
# overflows and no two large logs cancel at any L.

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


def _log_power_panel(rest, exponent: float, ln_v_lo: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale + ln of the integral of v^exponent rest(rows, v) over v in (v_lo, 1), one row per point.

    The panel runs over t = 1 - v^s, s = 1 + exponent, from 0 to its width
    1 - v_lo^s, taken as -expm1(s ln v_lo): exact however near 1 v_lo lies.
    """
    s = 1.0 + exponent
    width = -np.expm1(s * ln_v_lo)
    value = integrate_batch(lambda rows, t: rest(rows, (1.0 - t) ** (1.0 / s)) / s, np.zeros((len(width), 1)),
                            width[:, None])
    return scale + _log(_resolved(value))


def _log_outward(make, k: float, near: np.ndarray, far: np.ndarray, length: np.ndarray, step: float, degree: float,
                 kink: Optional[np.ndarray] = None) -> np.ndarray:
    """ln of the integral over w from near (next to z = 1) outward to far, in direction step, length long.

    Panels of width 1, 8, 64, ... from near and, where e^(k w) peaks at
    far, from far as well, so that the peak never falls in a wide panel;
    one more edge at kink where it lies inside the range (nan: nowhere).
    A range that ends less than 1/8 of its last full panel past an edge
    takes that rest into the panel.  length is (far - near) step as the
    caller knows it, to more digits than that difference keeps; where it
    is infinite (far is too), the range is cut at the decaying-tail rule's
    truncation point.  make(anchor, sign) is the integrand in
    s = sign (w - anchor) >= 0 with its log scale, anchored at the end
    where e^(k w) peaks: the nodes there stay exact at any |w|.  A range
    shorter than eps is integrated in s / length with ln length in its
    scale: its integrand can be as small as a power of its length (a log
    factor vanishing at one end), and their product would underflow where
    its log does not.
    """
    cut = np.isinf(length)
    if cut.any():
        far = np.where(cut, near + step * tail_cutoff(-k * step, degree, 0.0), far)
        length = np.where(cut, (far - near) * step, length)
    cuts = [0.0, 1.0]
    while cuts[-1] < length.max():
        cuts.append(8.0 * cuts[-1] + 1.0)
    cuts = np.array(cuts)
    flip = k * far > k * near
    edges = np.minimum(cuts, length[:, None])
    sliver = (cuts[1:] < length[:, None]) & (length[:, None] < cuts[1:] + (cuts[1:] - cuts[:-1]) / 8.0)
    edges[:, 1:] = np.where(sliver, length[:, None], edges[:, 1:])
    edges = np.column_stack([edges, np.where(flip[:, None], length[:, None] - edges, 0.0)])
    if kink is not None:
        at = np.clip(np.nan_to_num((kink - near) * step, nan=0.0), 0.0, length)
        edges = np.column_stack([edges, at])
    edges = np.sort(edges, axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    lo, hi = np.where(flip[:, None], length[:, None] - hi, lo), np.where(flip[:, None], length[:, None] - lo, hi)
    fn, scale = make(np.where(flip, far, near), np.where(flip, -step, step))
    if (length < _EPS).any():
        unit = np.where(length < _EPS, length, 1.0)  # 1 elsewhere, which leaves every node as it is
        lo, hi, scale = lo / unit[:, None], hi / unit[:, None], scale + np.log(unit)
        fn = partial(_in_units, fn, unit)
    return scale + _log(_resolved(integrate_batch(fn, lo, hi)))


def _in_units(fn, unit: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """fn(rows, s) at s = v unit, unit one per row."""
    return fn(rows, v * unit[rows, None])


def _log_piece_integral(f: TestFunction, piece: Piece, kernel: KernelSpec, ln_x: np.ndarray, sigma: float,
                        inner: float, outer: float) -> np.ndarray:
    """ln of one piece's share c^-1 u at each ln_x, whose range in |y| is (inner, outer).

    Each region end is (d, e, w): w = ln(|y|/|x|) is its place, and d + e,
    exact as that pair (:func:`_two_sum`), its offset |y| - X where X =
    e^ln_x is a normal double (one double wherever |y| is within a factor
    2 of X, so in the whole kernel-end zone), else |y| itself, and nan at a
    zone boundary there, which only w places.  Ends are ordered by offset
    where X is a normal double, else by w.
    """
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

    # the piece's ends, clipped to the truncation window |1 - sigma z| < e^r, and the boundaries between the
    # kernel ends and the outward regions (z = 1/2 and 3/2), or between the outward regions (z = 1, sigma < 0)
    r = math.log(kernel.reach) - ln_x
    s_lo, s_hi = (math.log(inner) if inner > 0.0 else -math.inf) - ln_x, math.log(outer) - ln_x
    kernel_ends, outward_regions, kinks = [], [], (None, None)
    with np.errstate(all="ignore"):  # branches np.where discards, and the ends where a region is empty
        x_abs = np.exp(ln_x)
        exact = (sys.float_info.min <= x_abs) & (x_abs < math.inf)
        every, some = exact.all(), exact.any()
        origin = np.where(exact, x_abs, 0.0)  # offsets are from X where exact, else from 0: |y| itself
        x_rest = x_abs - origin  # what of X the origin leaves out: 0 where exact, else X itself, 0 or inf
        half_x = np.where(exact, 0.5 * x_abs, np.nan)

        def per_point(by_offset, by_w):
            """by_offset() where exact, by_w() elsewhere, each evaluated only where some point needs it."""
            return by_offset() if every else by_w() if not some else np.where(exact, by_offset(), by_w())

        def further(a, b, sign):
            gt = np.greater if sign > 0.0 else np.less
            first = per_point(lambda: gt(a[0], b[0]) | ((a[0] == b[0]) & gt(a[1], b[1])), lambda: gt(a[2], b[2]))
            return tuple(np.where(first, p, q) for p, q in zip(a, b))

        def end(y, b, w):
            # the end at |y| = y + b - origin, b an array: its offset as an exact pair, and its w
            d, e = _two_sum(y, b)
            return d, np.where(np.isfinite(d), e, 0.0), w

        lo, hi = end(inner, -origin, s_lo), end(outer, -origin, s_hi)
        if kernel.reach < math.inf and sigma > 0.0:  # window edges X -+ R: offsets -+R where exact
            lo = further(lo, end(-kernel.reach, x_rest, np.log1p(-np.exp(np.minimum(r, 0.0)))), 1.0)
            hi = further(hi, end(kernel.reach, x_rest, np.logaddexp(0.0, r)), -1.0)
        elif kernel.reach < math.inf:  # R - X
            window = np.where(r > 0.0, r + np.log(-np.expm1(-r)), -np.inf)
            hi = further(hi, end(kernel.reach, -(x_abs + origin), window), -1.0)
        b_lo, b_hi = (-half_x, 0.0, _LN_HALF), (half_x, 0.0, _LN_3_2)
        if sigma < 0.0:
            b_lo = b_hi = (0.0 * half_x, 0.0, 0.0)

        # the kernel ends, |1 - z| from e^top v_lo to e^top on the side dirn of z = 1. Where exact, e^top = |d_far| / X
        # and v_lo = d_near / d_far, offsets that are one double in this zone; else from the piece's unclipped w's,
        # with the window edge as r, in which e^r keeps its digits
        for dirn, near, far, w_near, w_far in (
            (-1.0, lambda: np.minimum(hi[0], 0.0), lambda: np.maximum(lo[0], -half_x), s_hi, s_lo),
            (1.0, lambda: np.maximum(lo[0], 0.0), lambda: np.minimum(hi[0], half_x), s_lo, s_hi),
        )[: 2 if sigma > 0.0 else 0]:
            near, far = per_point(near, lambda: 0.0), per_point(far, lambda: 0.0)
            top = per_point(lambda: np.log(dirn * far / x_abs),
                            lambda: np.minimum(np.minimum(_LN_HALF, r), np.log(dirn * np.expm1(w_far))))
            ln_v_lo = per_point(lambda: -np.log1p(dirn * (far - near) / np.abs(near)),
                                lambda: np.log(dirn * np.expm1(dirn * np.maximum(dirn * w_near, 0.0))) - top)
            kernel_ends.append((dirn, ln_v_lo < 0.0, top, ln_v_lo))

        for k, upper, step, near, far in ((k_low, False, -1.0, further(hi, b_lo, -1.0), lo),
                                          (k_up, True, 1.0, further(lo, b_hi, 1.0), hi)):
            # ln(|y_far| / |y_near|) step, > 0 only where far lies beyond near: log1p of the offsets' difference
            # over the lower end's |y|, or from the w's where an end has no offset (or 3X/2 overflows)
            low = near if step > 0.0 else far
            ratio = ((far[0] - near[0]) + (far[1] - near[1])) / ((origin + low[0]) + low[1])
            length = np.log1p(step * ratio)
            length = np.where(np.isnan(length), step * (far[2] - near[2]), length)
            outward_regions.append((k, upper, step, near[2], far[2], length))

        if kernel_log:  # w where ln|1 - sigma z| = -L, below and above z = 1 (nan where there is none)
            if sigma > 0.0:
                kinks = np.log(-np.expm1(-ln_x)), np.logaddexp(0.0, -ln_x)
            else:
                kinks = (np.log(-np.expm1(ln_x)) - ln_x,) * 2

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

            return _log_power_panel(at_one, am1, ln_v_lo, scale)

        def make(anchor, sign):
            # v = e^(-tau/alpha), v^(alpha-1) dv = e^-tau dtau / alpha; anchored at tau = 0
            def at_tau(rows, tau):
                ln_v = -tau / alpha
                ln_z = np.log1p(dirn * np.exp(top[rows, None] + ln_v))
                val = np.exp(-tau - power * ln_z) * density(rows, ln_z)
                return val * _log_factor(np.abs(lx_top[rows, None] + ln_v), kernel.beta, kernel.slow)

            return at_tau, scale - math.log(alpha)

        kink = alpha * lx_top  # tau where |1 - z| = e^-L
        tau_lo = -alpha * ln_v_lo
        return _log_outward(make, -1.0, np.zeros(len(ln_x)), tau_lo, tau_lo, 1.0, kernel.beta, kink)

    for dirn, at, top, ln_v_lo in kernel_ends:
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

    def outward(k, upper, step, ln_x, near, far, length, kink):
        return _log_outward(partial(make, k, upper, ln_x), k, near, far, length, step, delta + kernel.beta, kink)

    def power_region(k, upper, step, ln_x, near, length):
        # in q = e^-|w| = q_near v, q_near = e^-|near|, the region is q_near^a, which the scale takes as
        # e^(k near), times the integral of v^(a-1)(1 - sigma q_near v)^(alpha-1) over v in (e^-length, 1)
        q_near = np.exp(-step * near)
        scale = (0.0 if upper else am1 * ln_x) + k * (ln_x + near)
        a = -k * step
        if a > 0.0:
            return _log_power_panel(lambda rows, v: (1.0 - sigma * q_near[rows, None] * v) ** am1, a - 1.0,
                                    -length, scale)
        # a = 0: the integral of 1/v, which is the length, plus one panel of the smooth rest
        rest = integrate_batch(lambda rows, v: np.expm1(am1 * np.log1p(-sigma * q_near[rows, None] * v)) / v,
                               np.exp(-length)[:, None], np.ones((len(near), 1)))
        return scale + np.log(length + _resolved(rest))

    for (k, upper, step, near, far, length), kink in zip(outward_regions, kinks):
        doubling = length > 0.0
        a = -k * step
        if not (dens or kernel_log) and a >= 0.0:  # see the comment above _LN_HALF
            whole = a == 0.0 or abs(1.0 / a - round(1.0 / a)) < 1e-9  # 1/a, to rounding
            q_panel = (length > max(1.0, 1.0 / a if a > 0.0 else 0.0)) & (whole | ((a <= 0.5) & np.isinf(far)))
            region(q_panel, partial(power_region, k, upper, step), ln_x, near, length)
            doubling &= ~q_panel
        region(doubling, partial(outward, k, upper, step), ln_x, near, far, length, kink)
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
    if not np.isfinite(lx).all():
        raise DomainError(f"scaled potential of {f.label}: ln|x| must be finite, got {lx[~np.isfinite(lx)][0]}")
    total = np.full(lx.shape, -np.inf)
    for piece in f.pieces:
        spans = [(piece.lo, 0.0), (0.0, piece.hi)] if piece.lo < 0.0 < piece.hi else [(piece.lo, piece.hi)]
        for lo, hi in spans:
            inner, outer = sorted((abs(lo), abs(hi)))
            ln_i = _log_piece_integral(f, piece, kernel, lx, side if hi > 0.0 else -side, inner, outer)
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
    """Integral of |f| over (lo, hi): analytic where a catalog piece has a closed form, else by the batched rule."""
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError(f"mass of {f.label}: the bounds must not be nan, got ({lo}, {hi})")
    return float(_interval_masses(f, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))


def _interval_masses(f: TestFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of |f| over (lo, hi), elementwise over arrays of bounds.

    A catalog piece without a varying slow factor has a closed form: c (b - a)
    on a plain piece, and e^(-c y) y^d dy in y = |ln|x|| on a singular one, an
    upper-gamma difference for c > 0 and a polynomial for c = 0.  Every other
    piece goes to :func:`_integrated_masses`.
    """
    lo, hi = np.broadcast_arrays(lo, hi)
    total = np.zeros(lo.shape)
    for piece in f.pieces:
        a, b = np.maximum(lo, piece.lo), np.minimum(hi, piece.hi)
        inside = b > a
        a, b = a[inside], b[inside]
        if piece.role == "plain" and f.evaluator is None:
            total[inside] += f.coefficient * (b - a)
            continue
        c = piece.rate(1.0)
        if f.evaluator is not None or f.slow is not None or c < 0.0:
            total[inside] += _integrated_masses(f, piece, a, b)
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


@np.errstate(divide="ignore", invalid="ignore")  # ln 0 and 0/0 where |f| is 0; x/0 at an origin piece's a = 0
def _integrated_masses(f: TestFunction, piece: Piece, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of |f| over each (a, b) inside one piece, one batched row per distinct interval.

    A singular piece takes the L_p norms' piece integral at p = 1 over the
    interval's range in y, and is inf over an infinite range it does not
    decay on; a plain piece of a user density is integrated in x.  A row past
    ``QuadratureSpec().rel_tol``, or a density that raises in floats, is a
    ToleranceError naming the interval.
    """
    (a, b), inverse = np.unique(np.stack([a, b]), axis=1, return_inverse=True)  # radii often cover a whole piece
    mass, rel = np.full(a.shape, math.inf), np.zeros(a.shape)
    try:
        if piece.role == "plain":
            if np.isinf(b - a).any():
                raise DomainError(f"{f.label}: a plain piece has no decay hint to integrate its unbounded range by")
            density = np.vectorize(f, otypes=[float])
            mass, error = integrate_batch(lambda rows, x: np.abs(density(x)), a[:, None], b[:, None])
            rel = error / mass
        else:
            near, far = (np.abs(b), np.abs(a)) if piece.hi <= 0.0 else (a, b)  # mirrored onto x > 0, -0 to 0
            y_lo = -np.log(far) if piece.role == "origin" else np.log(near)
            length = np.log1p((far - near) / near)  # ln(far/near), to its last digits however short
            rows = np.isfinite(length) | _piece_converges(piece, 1.0)
            logs, rel[rows] = _log_singular_integrals(f, piece, np.ones(rows.sum()), y_lo[rows], length[rows])
            mass[rows] = np.exp(logs)
    except (OverflowError, ZeroDivisionError) as exc:  # a density evaluated in floats, at a pole
        raise ToleranceError(
            f"mass of {f.label} over ({a.min():.17g}, {b.max():.17g}) not resolved: "
            f"the density raised {type(exc).__name__}: {exc}",
            achieved=math.inf,
        ) from exc
    missed = ~(rel <= QuadratureSpec().rel_tol) & (mass != 0.0)
    if missed.any():
        i = np.argmax(missed)
        raise ToleranceError(
            f"mass of {f.label} over ({a[i]:.17g}, {b[i]:.17g}) not resolved",
            achieved=float(rel[i]),
        )
    return mass[inverse]


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

    ``x`` is a float (float result) or a 1-D array (array result).
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
