"""Reference values the benchmark checks glpot's outputs against.

Everything here is written from the formulas alone and calls no glpot code,
so a defect in glpot cannot also hide in its own reference.
"""

from __future__ import annotations

import math

E = math.e
INV_E = 1.0 / math.e
#: glpot cuts the Macdonald-function kernel beyond this separation
BESSEL_REACH = 700.0


# ---------------------------------------------------------------------------
# L_p norms in closed form
# ---------------------------------------------------------------------------


def _log_gamma_integral(delta_p: float, c: float) -> float:
    """ln of the integral of y^delta_p e^(-c y) over (0, inf), c > 0."""
    return math.lgamma(delta_p + 1.0) - (delta_p + 1.0) * math.log(c)


def indicator_lp(lo: float, hi: float, p: float) -> float:
    return (hi - lo) ** (1.0 / p)


def example3_lp(alpha: float, delta: float, p: float) -> float:
    """|x|^-alpha (ln|x|)^delta on |x| > 1: 2 * Gamma(delta p + 1) / (alpha p - 1)^(delta p + 1)."""
    log_power = math.log(2.0) + _log_gamma_integral(delta * p, alpha * p - 1.0)
    return math.exp(log_power / p)


def tail_lp(delta: float, p: float) -> float:
    """x^-1 (ln x)^delta on (e, inf): ((p-1)^(-delta p - 1) Gamma(delta p + 1, p - 1))^(1/p)."""
    import mpmath as mp

    with mp.workdps(30):
        c = mp.mpf(p) - 1
        log_power = mp.log(mp.gammainc(delta * p + 1, c)) - (delta * p + 1) * mp.log(c)
        return float(mp.exp(log_power / p))


def sum_lp(norms: list[float], p: float) -> float:
    """Norm of a sum of functions with disjoint supports, from the parts' norms."""
    return sum(n**p for n in norms) ** (1.0 / p)


# ---------------------------------------------------------------------------
# potentials by mpmath quadrature
# ---------------------------------------------------------------------------


def _density(form: str, args: tuple[float, ...], y):
    import mpmath as mp

    if form == "indicator":
        lo, hi = args
        return mp.mpf(1) if lo <= y <= hi else mp.mpf(0)
    if form == "f_delta":
        alpha, delta = args
        return y**-alpha * (-mp.log(y)) ** delta if 0 < y < INV_E else mp.mpf(0)
    if form == "g_delta":
        (delta,) = args
        return mp.log(y) ** delta / y if y > E else mp.mpf(0)
    if form == "h_delta":
        alpha, delta = args
        return _density("f_delta", (alpha, delta), y) + _density("g_delta", (delta,), y)
    raise ValueError(f"no mpmath density for {form!r}")


def _kernel(kernel: str, args: tuple[float, ...], z):
    import mpmath as mp

    az = abs(z)
    if az == 0:
        return mp.mpf(0)
    alpha = args[0]
    if kernel == "riesz":
        return az ** (alpha - 1)
    if kernel == "log_riesz":
        return az ** (alpha - 1) * abs(mp.log(az)) ** args[1]
    if kernel == "truncated":
        beta, radius = args[1], args[2]
        return az ** (alpha - 1) * abs(mp.log(az)) ** beta if az < radius else mp.mpf(0)
    if kernel == "bessel":
        nu = (1 - mp.mpf(alpha)) / 2
        return az**-nu * mp.besselk(nu, az) if az <= BESSEL_REACH else mp.mpf(0)
    raise ValueError(f"no mpmath kernel for {kernel!r}")


def _support(form: str, args: tuple[float, ...]) -> list[tuple[float, float]]:
    if form == "indicator":
        return [args]
    if form == "f_delta":
        return [(0.0, INV_E)]
    if form == "g_delta":
        return [(E, math.inf)]
    return [(0.0, INV_E), (E, math.inf)]


def potential_mpmath(form: str, form_args, kernel: str, kernel_args, x: float) -> float:
    """(kernel * density)(x) by tanh-sinh quadrature at 20 digits.

    The range is split at every point where the integrand is singular or
    kinked (support edges, x, x +- 1 for log kernels, x +- radius), and
    infinite tails are cut into decades so the algebraic decay is resolved.
    """
    import mpmath as mp

    form_args, kernel_args = tuple(form_args), tuple(kernel_args)
    reach = math.inf
    if kernel == "truncated":
        reach = kernel_args[2]
    elif kernel == "bessel":
        reach = BESSEL_REACH
    total = mp.mpf(0)
    with mp.workdps(20):
        for lo, hi in _support(form, form_args):
            lo, hi = max(lo, x - reach), min(hi, x + reach)
            if not hi > lo:
                continue
            cuts = {lo, hi}
            for c in (x, x - 1.0, x + 1.0):
                if lo < c < hi:
                    cuts.add(c)
            if hi == math.inf:
                start = max(lo, abs(x) + 1.0)
                cuts.update(start * 10.0**k for k in range(0, 13))
            ordered = sorted(cuts)
            total += mp.quad(
                lambda y: _density(form, form_args, y) * _kernel(kernel, kernel_args, x - y),
                [mp.mpf(c) if math.isfinite(c) else mp.inf for c in ordered],
            )
    return float(total)


def indicator_riesz(alpha: float, x: float) -> float:
    """Riesz potential of the indicator of [0, 1]: (|x|^a +- |x-1|^a) / a."""
    if 0.0 < x < 1.0:
        return (x**alpha + (1.0 - x) ** alpha) / alpha
    return abs(abs(x) ** alpha - abs(x - 1.0) ** alpha) / alpha
