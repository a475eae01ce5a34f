"""Numerical evaluation (d = 1) of potential-type convolution operators.

Covers the fractional-integral kernel |z|^(alpha-1), its log and slowly
varying generalisations, the ball-truncated variants, the exponentially
decaying smoothed kernel built from the Macdonald function, and the
Hardy-Littlewood / fractional maximal operators.  Pointwise evaluation
splits the integration domain at the kernel singularity and at every
singularity of the density, applying a power substitution at kernel ends
and log substitutions at density ends and tails.

For the extreme arguments the sharpness experiments need (|x| up to e^1300,
or down to e^-1100), scaled evaluators return ln u(+-e^t) and ln u(+-e^-y)
directly, factoring the power of |x| out of the integral so no intermediate
quantity under- or overflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincc, kve

from .catalog import Piece, TestFunction
from .errors import DivergenceError, DomainError, ToleranceError
from .psi import SlowlyVarying
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    integrate_decaying,
    integrate_panel,
    logsumexp_pair,
    power_endpoint_integral,
)

#: beyond this separation the exponentially decaying kernel underflows
BESSEL_REACH = 700.0
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
    kernel with exponential decay.
    """

    variant: str
    alpha: float
    beta: float = 0.0
    slow: Optional[SlowlyVarying] = None
    radius: Optional[float] = None

    def __post_init__(self):
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
        return self.variant in ("log_riesz", "truncated") and (
            self.beta > 0.0 or (self.slow is not None and not self.slow.is_constant)
        )

    def log_weight(self, ln_abs_z: float) -> float:
        """The |ln|z||^beta S(|ln|z||) factor, given ln|z| (1 for plain variants)."""
        if self.variant in ("riesz", "bessel"):
            return 1.0
        a = abs(ln_abs_z)
        w = a**self.beta if self.beta != 0.0 else 1.0
        if self.slow is not None:
            w *= self.slow(a)
        return w

    def rest(self, z: float) -> float:
        """evaluate(z) / |z|^(alpha-1); bounded near z = 0."""
        az = abs(z)
        if self.variant in ("log_riesz", "truncated"):
            if self.variant == "truncated" and az >= self.radius:
                return 0.0
            return self.log_weight(math.log(az))
        if self.variant == "bessel":
            nu = (1.0 - self.alpha) / 2.0
            return az**nu * macdonald_K(nu, az)
        return 1.0

    def evaluate(self, z: float) -> float:
        az = abs(z)
        if az == 0.0:
            raise DomainError("kernel is singular at 0")
        if self.variant == "bessel":
            nu = (1.0 - self.alpha) / 2.0
            return az**-nu * macdonald_K(nu, az)
        if self.variant == "truncated" and az >= self.radius:
            return 0.0
        return az ** (self.alpha - 1.0) * self.log_weight(math.log(az))


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
    for s in f.singularities:
        if math.isfinite(s.location) and s.location == x and s.power >= kernel.alpha:
            raise DivergenceError(
                f"potential of {f.label} diverges at x={x:g}: combined exponent "
                f"{s.power + 1.0 - kernel.alpha:g} >= 1"
            )


def _density_exponent_at(f: TestFunction, location: float) -> float:
    for s in f.singularities:
        if math.isfinite(s.location) and s.location == location:
            return s.power
    return 0.0


def _tail_decay_hint(f: TestFunction, left: bool, kernel: KernelSpec) -> tuple[Optional[float], float]:
    for piece in f.pieces:
        if piece.role != "tail":
            continue
        if (piece.lo == -math.inf) == left:
            rate = piece.power - kernel.alpha
            return (rate if rate > 0.0 else None), piece.log_power + kernel.beta
    return None, 0.0


def _integrate_subpiece(
    f: TestFunction,
    x: float,
    kernel: KernelSpec,
    lo: float,
    hi: float,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integral of f(y) K(x-y) over one piece with no interior breakpoint."""
    if hi <= lo:
        return IntegralResult(0.0, 0.0)
    alpha = kernel.alpha
    if hi == math.inf:
        rate, deg = _tail_decay_hint(f, left=False, kernel=kernel)
        w0 = math.log(max(lo, 1e-300))
        return integrate_decaying(
            lambda w: f(math.exp(w)) * kernel.evaluate(x - math.exp(w)) * math.exp(w),
            w0,
            spec,
            decay_rate=rate,
            poly_degree=deg,
        )
    if lo == -math.inf:
        rate, deg = _tail_decay_hint(f, left=True, kernel=kernel)
        w0 = math.log(max(-hi, 1e-300))
        return integrate_decaying(
            lambda w: f(-math.exp(w)) * kernel.evaluate(x + math.exp(w)) * math.exp(w),
            w0,
            spec,
            decay_rate=rate,
            poly_degree=deg,
        )
    if lo == x:
        extra = _density_exponent_at(f, x)  # x may sit on a density singularity
        return power_endpoint_integral(
            lambda u: (u**extra * f(x + u)) * kernel.rest(u), alpha - 1.0 - extra, hi - lo, spec
        )
    if hi == x:
        extra = _density_exponent_at(f, x)
        return power_endpoint_integral(
            lambda u: (u**extra * f(x - u)) * kernel.rest(-u), alpha - 1.0 - extra, hi - lo, spec
        )
    if lo == 0.0 and _density_exponent_at(f, 0.0) > 0.0:
        w0 = -math.log(hi)
        return integrate_decaying(
            lambda w: f(math.exp(-w)) * kernel.evaluate(x - math.exp(-w)) * math.exp(-w), w0, spec
        )
    if hi == 0.0 and _density_exponent_at(f, 0.0) > 0.0:
        w0 = -math.log(-lo)
        return integrate_decaying(
            lambda w: f(-math.exp(-w)) * kernel.evaluate(x + math.exp(-w)) * math.exp(-w), w0, spec
        )
    return integrate_panel(lambda y: f(y) * kernel.evaluate(x - y), lo, hi, spec)


def apply_kernel_report(
    f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec | None = None
) -> IntegralResult:
    """Convolution value (kernel * f)(x) with an error estimate."""
    spec = spec or QuadratureSpec()
    _check_apply_convergence(f, x, kernel)
    sing_locs = [s.location for s in f.singularities if math.isfinite(s.location)]
    reach = kernel.reach
    total, err = 0.0, 0.0
    for seg_lo, seg_hi in f.support:
        lo = max(seg_lo, x - reach) if reach != math.inf else seg_lo
        hi = min(seg_hi, x + reach) if reach != math.inf else seg_hi
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
        pieces: list[tuple[float, float]] = []
        for c1, c2 in zip(ordered[:-1], ordered[1:]):
            # keep the kernel-singular piece finite and short, and never let a
            # single piece touch both the kernel and a density singularity
            if c1 == x and c2 == math.inf:
                w = max(1.0, 2.0 * abs(x))
                pieces += [(x, x + w), (x + w, math.inf)]
            elif c2 == x and c1 == -math.inf:
                w = max(1.0, 2.0 * abs(x))
                pieces += [(-math.inf, x - w), (x - w, x)]
            elif (c1 == x and c2 in sing_locs) or (c2 == x and c1 in sing_locs):
                mid = c1 + 0.5 * (c2 - c1)
                pieces += [(c1, mid), (mid, c2)]
            elif c1 == x and math.isfinite(c2) and c2 - c1 > 1.0:
                pieces += [(c1, c1 + 0.5 * (c2 - c1)), (c1 + 0.5 * (c2 - c1), c2)]
            elif c2 == x and math.isfinite(c1) and c2 - c1 > 1.0:
                pieces += [(c1, c2 - 0.5 * (c2 - c1)), (c2 - 0.5 * (c2 - c1), c2)]
            else:
                pieces.append((c1, c2))
        for p_lo, p_hi in pieces:
            v, e = _integrate_subpiece(f, x, kernel, p_lo, p_hi, spec)
            total += v
            err += e + kernel.rel_err * abs(v)
    if total != 0.0 and err / abs(total) > spec.rel_tol:
        raise ToleranceError(f"potential at x={x:g} too inaccurate", achieved=err / abs(total))
    return IntegralResult(total, err)


def apply_kernel(f: TestFunction, x: float, kernel: KernelSpec, spec: QuadratureSpec | None = None) -> float:
    return apply_kernel_report(f, x, kernel, spec).value


def bessel_potential(f: TestFunction, x: float, alpha: float, spec: QuadratureSpec | None = None) -> float:
    """Convolution with the exponentially decaying smoothed kernel."""
    return apply_kernel(f, x, KernelSpec.bessel(alpha), spec)


# ---------------------------------------------------------------------------
# scaled (log-space) evaluation at extreme arguments
# ---------------------------------------------------------------------------

_SCALED_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-280, max_depth=60)


def _far_tail_family(delta: float, kernel: KernelSpec, t: float, side: float) -> float:
    """ln u(side e^t) for the density y^-1 (ln y)^delta on (e, inf); t >= 1.5."""
    alpha = kernel.alpha
    if kernel.variant == "truncated":
        if side < 0:
            return -math.inf  # window around -e^t misses the support
        rho = kernel.radius
        if t <= 700.0 and math.exp(t) - rho <= math.e:
            raise DomainError("far evaluation needs the truncation window inside the support")

        def window_rest(u: float, sgn: float) -> float:
            rel = sgn * u * math.exp(-t)  # (y - x)/x, |rel| << 1
            dens = (t + math.log1p(rel)) ** delta / (1.0 + rel)
            return dens * kernel.log_weight(math.log(u))

        v1, _ = power_endpoint_integral(lambda u: window_rest(u, 1.0), alpha - 1.0, rho, _SCALED_SPEC)
        v2, _ = power_endpoint_integral(lambda u: window_rest(u, -1.0), alpha - 1.0, rho, _SCALED_SPEC)
        return -t + math.log(v1 + v2)

    def lw(ln_gap: float) -> float:
        return kernel.log_weight(ln_gap)

    if side > 0:

        def smooth_low(w: float) -> float:  # w = ln z in (1 - t, ln 1/2); gap = 1 - z
            return (t + w) ** delta * (-math.expm1(w)) ** (alpha - 1.0) * lw(t + math.log(-math.expm1(w)))

        # for t < 1 + ln 2 the support edge z = e^(1-t) lies above 1/2: this
        # panel is empty and the near-left panel below stops at the edge
        v1, _ = integrate_panel(smooth_low, 1.0 - t, math.log(0.5), _SCALED_SPEC)

        def near_rest(u: float, sgn: float) -> float:  # u = |z - 1|
            z = 1.0 + sgn * u
            return (t + math.log(z)) ** delta / z * lw(t + math.log(u))

        left_w = min(0.5, -math.expm1(1.0 - t))
        v2, _ = power_endpoint_integral(lambda u: near_rest(u, -1.0), alpha - 1.0, left_w, _SCALED_SPEC)
        v3, _ = power_endpoint_integral(lambda u: near_rest(u, 1.0), alpha - 1.0, 0.5, _SCALED_SPEC)

        def high(w: float) -> float:  # w = ln z >= ln 3/2; gap = z - 1
            return (
                math.exp((alpha - 1.0) * w)
                * (-math.expm1(-w)) ** (alpha - 1.0)
                * (t + w) ** delta
                * lw(t + w + math.log(-math.expm1(-w)))
            )

        v4, _ = integrate_decaying(
            high, math.log(1.5), _SCALED_SPEC, decay_rate=1.0 - alpha, poly_degree=delta + kernel.beta
        )
        return (alpha - 1.0) * t + math.log(v1 + v2 + v3 + v4)

    def low_neg(w: float) -> float:  # gap = 1 + z
        z = math.exp(w)
        return (t + w) ** delta * (1.0 + z) ** (alpha - 1.0) * lw(t + math.log1p(z))

    v1, _ = integrate_panel(low_neg, 1.0 - t, math.log(1.5), _SCALED_SPEC)

    def high_neg(w: float) -> float:
        return (
            math.exp((alpha - 1.0) * w)
            * (1.0 + math.exp(-w)) ** (alpha - 1.0)
            * (t + w) ** delta
            * lw(t + w + math.log1p(math.exp(-w)))
        )

    v2, _ = integrate_decaying(
        high_neg, math.log(1.5), _SCALED_SPEC, decay_rate=1.0 - alpha, poly_degree=delta + kernel.beta
    )
    return (alpha - 1.0) * t + math.log(v1 + v2)


def _far_origin_family(f: TestFunction, pieces: list[Piece], kernel: KernelSpec, t: float, side: float) -> float:
    """ln u(side e^t) for the origin pieces of f (coefficient excluded)."""
    alpha = kernel.alpha
    if kernel.variant == "truncated":
        outer = max(max(abs(piece.lo), abs(piece.hi)) for piece in pieces)
        if t > 700.0 or kernel.radius < math.exp(t) - outer:
            return -math.inf
        raise DomainError("far evaluation with a partially covering truncation window is unsupported")

    def piece_integral(piece: Piece) -> float:
        y_sign = -1.0 if piece.hi <= 0.0 else 1.0

        def integrand(w: float) -> float:  # y = y_sign e^-w
            y = y_sign * math.exp(-w)
            gap = 1.0 - y_sign * side * math.exp(-w - t)
            raw = f(y) / f.coefficient
            return raw * math.exp(-w) * gap ** (alpha - 1.0) * kernel.log_weight(t + math.log(gap))

        v, _ = integrate_decaying(
            integrand, piece.y0, _SCALED_SPEC, decay_rate=piece.rate(1.0), poly_degree=piece.log_power
        )
        return v

    total = sum(piece_integral(piece) for piece in pieces)
    if total <= 0.0:
        return -math.inf
    return (alpha - 1.0) * t + math.log(total)


def _far_indicator(piece: Piece, kernel: KernelSpec, t: float, side: float) -> float:
    """ln u(side e^t) for a plain piece (coefficient excluded)."""
    alpha = kernel.alpha
    lo, hi = piece.lo, piece.hi
    if kernel.variant == "truncated":
        bound = max(abs(lo), abs(hi))
        if t > 700.0 or kernel.radius < math.exp(t) - bound:
            return -math.inf
        raise DomainError("far evaluation with a partially covering truncation window is unsupported")

    def integrand(y: float) -> float:
        gap = 1.0 - side * y * math.exp(-t)
        if gap <= 0.0:
            return 0.0
        return gap ** (alpha - 1.0) * kernel.log_weight(t + math.log(gap))

    v, _ = integrate_panel(integrand, lo, hi, _SCALED_SPEC)
    if v <= 0.0:
        return -math.inf
    return (alpha - 1.0) * t + math.log(v)


def _tail_family_side(f: TestFunction, piece: Piece, side: float) -> float:
    """The side at which the tail family evaluates a tail piece of f.

    The tail family is the density x^-1 (ln x)^delta on (e, inf); a piece on
    (-inf, -e) is its mirror image, whose potential at x is the family's at -x.
    """
    if piece.power != 1.0 or piece.y0 != 1.0 or f.slow is not None:
        raise DomainError(f"no scaled evaluation for the tail of {f.label}: only x^-1 (ln x)^delta beyond e")
    return side if piece.lo > 0.0 else -side


def _scaled_pieces(f: TestFunction, kernel: KernelSpec, side: float, where: str) -> list[Piece]:
    """Validate a scaled evaluation and return the origin pieces of f."""
    if kernel.variant == "bessel":
        raise DomainError(f"scaled {where} evaluation is for the power-kernel family")
    if side not in (1.0, -1.0):
        raise DomainError(f"side must be +-1.0, got {side}")
    if f.evaluator is not None:
        raise DomainError(f"no scaled {where} evaluation for {f.label}")
    return [piece for piece in f.pieces if piece.role == "origin"]


def log_potential_far(f: TestFunction, kernel: KernelSpec, t: float, side: float) -> float:
    """ln of the potential at x = side * e^t for t >= ~1.5, stable at any t.

    Supported for the power-kernel family and the catalog densities whose
    tail pieces are x^-1 (ln x)^delta beyond e.
    """
    origin = _scaled_pieces(f, kernel, side, "far")
    total = _far_origin_family(f, origin, kernel, t, side) if origin else -math.inf
    for piece in f.pieces:
        if piece.role == "plain":
            total = logsumexp_pair(total, _far_indicator(piece, kernel, t, side))
        elif piece.role == "tail":
            total = logsumexp_pair(
                total, _far_tail_family(piece.log_power, kernel, t, _tail_family_side(f, piece, side))
            )
    return math.log(f.coefficient) + total


def _ln_1p_exp(a: float) -> float:
    """ln(1 + e^a), stable for any a."""
    if a > 30.0:
        return a + math.log1p(math.exp(-a))
    return math.log1p(math.exp(a))


def _near_origin_family(f: TestFunction, pieces: list[Piece], kernel: KernelSpec, y: float, side: float) -> float:
    """ln u(side e^-y) for the origin pieces of f (coefficient excluded).

    Substituted z = |y'| e^y; the density side equal to the evaluation side
    puts the kernel singularity at z = 1.  All range caps are carried in ln z
    so nothing overflows at large y.
    """
    alpha = kernel.alpha
    a_f, delta = pieces[0].power, pieces[0].log_power
    if any(piece.power != a_f or piece.log_power != delta for piece in pieces):
        raise DomainError(f"near evaluation needs origin pieces of one shape, got {f.label}")
    if abs(alpha - a_f) * y > 600.0:
        raise DomainError("near evaluation with mismatched kernel/density exponents at extreme depth")
    ln_rho_z = math.inf if kernel.reach == math.inf else math.log(kernel.reach) + y

    def slow_f(arg: float) -> float:
        return f.slow(arg) if f.slow is not None else 1.0

    def dens_rest(z: float) -> float:
        """density shape without its power part: (y - ln z)^delta S_f(y - ln z)."""
        arg = y - math.log(z)
        return arg**delta * slow_f(arg)

    def piece_integral(piece: Piece) -> float:
        rel_sign = -side if piece.hi <= 0.0 else side
        ln_z_sup = y - piece.y0  # support cap |y'| < e^-y0
        total = 0.0
        if rel_sign > 0:
            ln_z_hi = min(ln_z_sup, _ln_1p_exp(ln_rho_z) if ln_rho_z != math.inf else math.inf)
            z_lo = 0.0 if ln_rho_z >= 0.0 else 1.0 - math.exp(ln_rho_z)
            cap_half = min(0.5, math.exp(ln_z_hi)) if ln_z_hi < 0.0 else 0.5
            # (z_lo, cap_half): power endpoint of the density at z = 0
            if z_lo < cap_half:
                if z_lo == 0.0:
                    v, _ = power_endpoint_integral(
                        lambda u: dens_rest(u) * (1.0 - u) ** (alpha - 1.0) * kernel.log_weight(math.log1p(-u) - y),
                        -a_f,
                        cap_half,
                        _SCALED_SPEC,
                    )
                else:
                    v, _ = integrate_panel(
                        lambda z: z**-a_f * dens_rest(z) * (1.0 - z) ** (alpha - 1.0)
                        * kernel.log_weight(math.log1p(-z) - y),
                        z_lo,
                        cap_half,
                        _SCALED_SPEC,
                    )
                total += v
            # kernel-singular branches around z = 1
            if ln_z_hi > math.log(0.5):
                left_w = min(0.5, 1.0 - z_lo) if z_lo > 0.5 else 0.5
                v, _ = power_endpoint_integral(
                    lambda u: (1.0 - u) ** -a_f * dens_rest(1.0 - u) * kernel.log_weight(math.log(u) - y),
                    alpha - 1.0,
                    left_w,
                    _SCALED_SPEC,
                )
                total += v
            if ln_z_hi > 0.0:
                right_w = 0.5 if ln_z_hi > math.log(1.5) else math.exp(ln_z_hi) - 1.0
                v, _ = power_endpoint_integral(
                    lambda u: (1.0 + u) ** -a_f * dens_rest(1.0 + u) * kernel.log_weight(math.log(u) - y),
                    alpha - 1.0,
                    right_w,
                    _SCALED_SPEC,
                )
                total += v
            if ln_z_hi > math.log(1.5):

                def far_branch(w: float) -> float:  # w = ln z; gap = z - 1
                    shrink = -math.expm1(-w)
                    return (
                        math.exp((alpha - a_f) * w)
                        * shrink ** (alpha - 1.0)
                        * (y - w) ** delta
                        * slow_f(y - w)
                        * kernel.log_weight(w + math.log(shrink) - y)
                    )

                v, _ = integrate_panel(far_branch, math.log(1.5), ln_z_hi, _SCALED_SPEC)
                total += v
        else:
            if ln_rho_z <= 0.0:
                return 0.0  # the window |1 + z| < rho_z is empty
            ln_z_hi = min(ln_z_sup, math.log(math.expm1(ln_rho_z)) if ln_rho_z < 30.0 else ln_rho_z)
            if ln_z_hi > -math.inf:
                v, _ = power_endpoint_integral(
                    lambda u: dens_rest(u) * (1.0 + u) ** (alpha - 1.0) * kernel.log_weight(math.log1p(u) - y),
                    -a_f,
                    min(1.0, math.exp(min(ln_z_hi, 0.0))),
                    _SCALED_SPEC,
                )
                total += v
            if ln_z_hi > 0.0:

                def far_branch_neg(w: float) -> float:  # gap = 1 + z
                    grow = 1.0 + math.exp(-w)
                    return (
                        math.exp((alpha - a_f) * w)
                        * grow ** (alpha - 1.0)
                        * (y - w) ** delta
                        * slow_f(y - w)
                        * kernel.log_weight(w + math.log(grow) - y)
                    )

                v, _ = integrate_panel(far_branch_neg, 0.0, ln_z_hi, _SCALED_SPEC)
                total += v
        return total

    total = sum(piece_integral(piece) for piece in pieces)
    if total <= 0.0:
        return -math.inf
    return -y * (alpha - a_f) + math.log(total)


def _near_tail_family(delta: float, kernel: KernelSpec, y: float, side: float) -> float:
    """ln u(side e^-y) for the density y'^-1 (ln y')^delta on (e, inf)."""
    alpha = kernel.alpha
    x_mag = math.exp(-min(y, 700.0))

    def integrand(w: float) -> float:  # y' = e^w, w >= 1
        rel = side * math.exp(-y - w)
        gap_ln = w + math.log1p(-rel)
        return w**delta * math.exp((alpha - 1.0) * w) * (1.0 - rel) ** (alpha - 1.0) * kernel.log_weight(gap_ln)

    if kernel.variant == "truncated":
        if kernel.radius <= math.e - (x_mag if side > 0 else -x_mag):
            return -math.inf
        w_hi = math.log(kernel.radius + (x_mag if side > 0 else -x_mag))
        v, _ = integrate_panel(integrand, 1.0, w_hi, _SCALED_SPEC)
    else:
        v, _ = integrate_decaying(
            integrand, 1.0, _SCALED_SPEC, decay_rate=1.0 - alpha, poly_degree=delta + kernel.beta
        )
    if v <= 0.0:
        return -math.inf
    return math.log(v)


def _near_indicator(piece: Piece, kernel: KernelSpec, y: float, side: float) -> float:
    """ln u(side e^-y) for a plain piece (coefficient excluded)."""
    x = side * math.exp(-min(y, 700.0))
    val = apply_kernel(TestFunction.indicator(piece.lo, piece.hi), x, kernel, _SCALED_SPEC)
    return math.log(val) if val > 0.0 else -math.inf


def log_potential_near(f: TestFunction, kernel: KernelSpec, y: float, side: float) -> float:
    """ln of the potential at x = side * e^-y for y >= 1, stable at any y."""
    origin = _scaled_pieces(f, kernel, side, "near")
    total = _near_origin_family(f, origin, kernel, y, side) if origin else -math.inf
    for piece in f.pieces:
        if piece.role == "plain":
            total = logsumexp_pair(total, _near_indicator(piece, kernel, y, side))
        elif piece.role == "tail":
            total = logsumexp_pair(
                total, _near_tail_family(piece.log_power, kernel, y, _tail_family_side(f, piece, side))
            )
    return math.log(f.coefficient) + total


# ---------------------------------------------------------------------------
# interval mass and maximal operators
# ---------------------------------------------------------------------------


def interval_mass(f: TestFunction, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Integral of |f| over (lo, hi); analytic on the catalog pieces where it has a closed form."""
    return float(_interval_masses(f, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), spec))


def _interval_masses(f: TestFunction, lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Integral of |f| over (lo, hi), elementwise over arrays of bounds.

    A plain piece is c (b - a).  A singular piece is e^(-c y) y^d dy in
    y = |ln|x||: an upper-gamma difference for c > 0, a polynomial for
    c = 0.  Growth (c < 0), a non-constant slow factor and user densities
    go to quadrature, one interval at a time.
    """
    lo, hi = np.broadcast_arrays(lo, hi)
    if f.evaluator is not None:
        return _quadrature_masses(f, lo, hi, spec)
    total = np.zeros(lo.shape)
    for piece in f.pieces:
        a, b = np.maximum(lo, piece.lo), np.minimum(hi, piece.hi)
        inside = b > a
        a, b = a[inside], b[inside]
        if piece.role == "plain":
            total[inside] += f.coefficient * (b - a)
            continue
        c = piece.rate(1.0)
        if c < 0.0 or not (f.slow is None or f.slow.is_constant):
            # quadrature, except where e^(-c y) y^d grows along an infinite range
            grows = (c < 0.0) & np.isinf(b - a)
            mass = np.full(a.shape, math.inf)
            mass[~grows] = _quadrature_masses(f, a[~grows], b[~grows], spec)
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


def _quadrature_masses(f: TestFunction, lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec | None) -> np.ndarray:
    """Elementwise :func:`_quadrature_mass`."""
    spec = spec or QuadratureSpec()
    return np.vectorize(lambda a, b: _quadrature_mass(f, a, b, spec), otypes=[float])(lo, hi)


def _quadrature_mass(f: TestFunction, lo: float, hi: float, spec: QuadratureSpec) -> float:
    """Integral of |f| over (lo, hi) by quadrature, split at support ends and singularities."""
    total = 0.0
    for seg_lo, seg_hi in f.support:
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        if b <= a:
            continue
        breaks = sorted({a, b} | {s.location for s in f.singularities if a < s.location < b})
        for c1, c2 in zip(breaks[:-1], breaks[1:]):
            total += _integrate_abs_singular(f, c1, c2, spec).value
    return total


def _integrate_abs_singular(f: TestFunction, lo: float, hi: float, spec: QuadratureSpec) -> IntegralResult:
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
    for s in f.singularities:
        if math.isfinite(s.location) and s.power >= 1.0:
            raise DivergenceError(f"{f.label} is not locally integrable at {s.location:g}")


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
    """Ordered evaluation abscissae with their spacing rule."""

    points: tuple[float, ...]
    rule: str = "explicit"

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if any(b <= a for a, b in zip(pts[:-1], pts[1:])):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "EvalGrid":
        if n < 2 or not hi > lo:
            raise DomainError("uniform grid needs n >= 2 and lo < hi")
        return EvalGrid(tuple(np.linspace(lo, hi, n)), "uniform")

    @staticmethod
    def geometric(lo: float, hi: float, n: int) -> "EvalGrid":
        if n < 2 or not 0.0 < lo < hi:
            raise DomainError("geometric grid needs n >= 2 and 0 < lo < hi")
        return EvalGrid(tuple(np.geomspace(lo, hi, n)), "geometric")


def maximal_over_grid(f: TestFunction, grid: EvalGrid, alpha: Optional[float] = None) -> float:
    """Fold of the pointwise maximal function over a grid (max over points)."""
    points = np.array(grid.points)
    values = hl_maximal(f, points) if alpha is None else fractional_maximal(f, points, alpha)
    return float(np.max(values))
